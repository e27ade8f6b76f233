"""Write ``micro_inputs.json``: the recorded inputs of the micro-costs.

Each pool is a fixed random sample (generator seed 0) of operations the
workloads perform: compositions in the standard 4-cube, faces and
pushforwards of partition simplices, faces of ``CobarSet(D4sk1)`` cubes in
degree 3 and of D4sk1 simplices, faces and products of loop-group words from
the operator provider on D4sk1, canonicalizations in the triangulated
3-cube, and the boundary matrices whose ranks ``loop-homology`` computes.

The file is committed so that every commit times the same inputs.  Run
``python3 perfbench/record_inputs.py`` from the repository root only when
the benchmark itself is meant to change.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import micro  # noqa: E402
import workloads  # noqa: E402

POOL = 400
CANON_CUBE_DIM = 3
CANON_MAX_DIM = 4


def pick(rng, items):
    items = list(items)
    return rng.sample(items, min(POOL, len(items)))


def record(lib):
    rng = random.Random(0)
    cubes, sc, simplicial = lib.cubes, lib.simpcube, lib.simplicial
    M = cubes.CubeMorphism
    pools = {"canon_cube_dim": CANON_CUBE_DIM, "canon_max_dim": CANON_MAX_DIM}

    cube4 = cubes.StandardCube(4)
    pairs = []
    for k in range(1, 5):
        for y in cube4.cubes(k):
            pairs += [(y, M.delta(k, eps, i)) for eps in (0, 1)
                      for i in range(1, k + 1)]
            pairs += [(y, M.sigma(k + 1, i)) for i in range(1, k + 2)]
            pairs += [(y, M.gamma(k + 1, i)) for i in range(1, k + 1)]
    pools["compose"] = [[micro.enc_morphism(a), micro.enc_morphism(b)]
                        for a, b in pick(rng, pairs)]

    scube = sc.SimplicialCube(4)
    faces = [(u, j) for m in range(1, 6) for u in scube.simplices(m)
             for j in range(m + 1)]
    pools["partition_face"] = [[micro.enc_partition(u), j]
                               for u, j in pick(rng, faces)]

    pushes = []
    for n in range(1, 5):
        for pi in lib.perms.all_perms(n - 1):
            pushes += [(M.delta(n, eps, i), sc.u_pi(pi)) for eps in (0, 1)
                       for i in range(1, n + 1)]
        for pi in lib.perms.all_perms(n):
            pushes += [(M.sigma(n, i), sc.u_pi(pi)) for i in range(1, n + 1)]
            pushes += [(M.gamma(n, i), sc.u_pi(pi)) for i in range(1, n)]
    pools["lambda_star"] = [[micro.enc_morphism(lam), micro.enc_partition(u)]
                            for lam, u in pick(rng, pushes)]

    d4 = simplicial.fixture("D4sk1")
    cset = lib.cobar.CobarSet(d4)
    cobar_faces = [(c, eps, i) for c in cset.cubes(3) for eps in (0, 1)
                   for i in range(1, 4)]
    pools["cobar_face"] = [[micro.enc_cube(c), eps, i]
                           for c, eps, i in pick(rng, cobar_faces)]

    sfaces = [(x, i) for n in range(1, 5) for x in d4.simplices(n)
              for i in range(n + 1)]
    pools["simplicial_face"] = [[micro.enc_simplex(x), i]
                                for x, i in pick(rng, sfaces)]

    provider = lib.szczarba.SzProvider(lib.loopgroup.LoopGroup(d4))
    words = [provider.sz(pi, x) for n in range(3) for x in d4.simplices(n + 1)
             for pi in lib.perms.all_perms(n)]
    group_faces = [(a, i) for a in words if a.n >= 1 for i in range(a.n + 1)]
    pools["group_face"] = [[micro.enc_word(a), i]
                           for a, i in pick(rng, group_faces)]
    by_dim = {}
    for a in words:
        by_dim.setdefault(a.n, []).append(a)
    products = [(a, b) for same in by_dim.values() for a in same
                for b in same]
    pools["group_mul"] = [[micro.enc_word(a), micro.enc_word(b)]
                          for a, b in pick(rng, products)]

    tri = lib.triangulate.TriangulatedCubicalSet(
        cubes.StandardCube(CANON_CUBE_DIM), CANON_MAX_DIM)
    canon = [(x.cube, sc.partition_face(x.simplex, i))
             for m in range(1, CANON_CUBE_DIM + 1)
             for x in tri.nondegenerate(m) for i in range(m + 1)]
    pools["canon"] = [[micro.enc_morphism(y), micro.enc_partition(u)]
                      for y, u in pick(rng, canon)]

    homology = workloads.WORKLOADS["loop-homology"]
    ctx = homology.setup(lib)
    matrices = []
    for name, build in homology.complexes(lib, ctx).items():
        cx = build()
        for n in range(1, len(workloads.LOOP_HOMOLOGY[name]) + 1):
            matrices.append(micro.enc_matrix(cx.boundary_matrix(n)))
    pools["snf_rank"] = matrices
    return pools


def main():
    lib = workloads.load_library(HERE.parent)
    pools = record(lib)
    micro.INPUTS.write_text(json.dumps(pools, separators=(",", ":")) + "\n",
                            encoding="utf-8")
    print(f"wrote {micro.INPUTS.name}: "
          + ", ".join(f"{k} {len(v)}" for k, v in pools.items()
                      if isinstance(v, list)))


if __name__ == "__main__":
    main()
