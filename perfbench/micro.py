"""Micro-costs of single operations on fixed, recorded inputs.

``micro_inputs.json`` holds pools of inputs drawn once from objects the
workloads enumerate (see ``record_inputs.py``), written in a plain encoding
that only uses the library's public constructors.  A run draws a sample from
each pool with its seed, so two commits timed with the same seed time the
same inputs even if the library enumerates in another order.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "micro_inputs.json"
SAMPLE = 200     # inputs drawn per operation
REPEATS = 7      # timed sweeps over the sample; the median sweep is reported
SNF_REPEATS = 3

# ----- encoding shared with record_inputs.py ------------------------------------------


def enc_morphism(lam):
    return [lam.source, lam.target,
            [out if out in (0, 1) else list(out) for out in lam.outputs]]


def dec_morphism(lib, data):
    source, target, outputs = data
    return lib.cubes.CubeMorphism(
        source, target,
        tuple(out if out in (0, 1) else tuple(out) for out in outputs))


def enc_simplex(x):
    return [list(x.degens), x.gen, x.gen_dim]


def dec_simplex(lib, data):
    degens, gen, gen_dim = data
    return lib.simplicial.Simplex(tuple(degens), gen, gen_dim)


def enc_partition(u):
    return [u.n, [sorted(p) for p in u.parts]]


def dec_partition(lib, data):
    n, parts = data
    return lib.simpcube.from_parts(n, parts)


def enc_cube(cube):
    base, ops = cube
    return [[enc_simplex(x) for x in base], [list(op) for op in ops]]


def dec_cube(lib, data):
    base, ops = data
    return (tuple(dec_simplex(lib, x) for x in base),
            tuple((kind, i) for kind, i in ops))


def enc_word(a):
    return [a.n, [[enc_simplex(x), e] for x, e in a.letters]]


def dec_word(lib, group, data):
    n, letters = data
    return group.word(n, [(dec_simplex(lib, x), e) for x, e in letters])


def enc_matrix(mat):
    cols = len(mat[0]) if mat else 0
    return [len(mat), cols, [[i, j, v] for i, row in enumerate(mat)
                             for j, v in enumerate(row) if v]]


def dec_matrix(data):
    rows, cols, entries = data
    mat = [[0] * cols for _ in range(rows)]
    for i, j, v in entries:
        mat[i][j] = v
    return mat


# ----- timing ----------------------------------------------------------------------------


def _per_call_seconds(op, inputs, repeats):
    """Median over sweeps of the mean seconds per call of ``op(*args)``."""
    sweeps = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in inputs:
            op(*args)
        sweeps.append((time.perf_counter() - start) / len(inputs))
    return statistics.median(sweeps)


def _draw(pool, rng):
    return rng.sample(pool, min(SAMPLE, len(pool)))


def measure(lib, rng):
    """Metric name -> (value, unit) for every micro-cost."""
    pools = json.loads(INPUTS.read_text(encoding="utf-8"))
    d4 = lib.simplicial.fixture("D4sk1")
    cset = lib.cobar.CobarSet(d4)
    group = lib.loopgroup.LoopGroup(d4)
    tri = lib.triangulate.TriangulatedCubicalSet(
        lib.cubes.StandardCube(pools["canon_cube_dim"]),
        pools["canon_max_dim"])
    sc = lib.simpcube
    ops = {
        "cubes.compose_us": (lib.cubes.CubeMorphism.compose, [
            (dec_morphism(lib, a), dec_morphism(lib, b))
            for a, b in _draw(pools["compose"], rng)]),
        "simpcube.partition_face_us": (sc.partition_face, [
            (dec_partition(lib, u), j)
            for u, j in _draw(pools["partition_face"], rng)]),
        "simpcube.lambda_star_us": (sc.lambda_star, [
            (dec_morphism(lib, lam), dec_partition(lib, u))
            for lam, u in _draw(pools["lambda_star"], rng)]),
        "cobar.face_us": (cset.face, [
            (dec_cube(lib, c), eps, i)
            for c, eps, i in _draw(pools["cobar_face"], rng)]),
        "simplicial.face_us": (d4.face, [
            (dec_simplex(lib, x), i)
            for x, i in _draw(pools["simplicial_face"], rng)]),
        "loopgroup.face_us": (group.face, [
            (dec_word(lib, group, a), i)
            for a, i in _draw(pools["group_face"], rng)]),
        "loopgroup.mul_us": (group.mul, [
            (dec_word(lib, group, a), dec_word(lib, group, b))
            for a, b in _draw(pools["group_mul"], rng)]),
        "triangulate.canon_us": (tri.canon, [
            (dec_morphism(lib, y), dec_partition(lib, u))
            for y, u in _draw(pools["canon"], rng)]),
    }
    out = {}
    for name, (op, inputs) in ops.items():
        out[name] = (_per_call_seconds(op, inputs, REPEATS) * 1e6, "us")
    matrices = [dec_matrix(m) for m in pools["snf_rank"]]
    rng.shuffle(matrices)
    out["snf.rank_ms"] = (_per_call_seconds(
        lib.snf.matrix_rank, [(m,) for m in matrices], SNF_REPEATS) * 1e3,
        "ms")
    return out
