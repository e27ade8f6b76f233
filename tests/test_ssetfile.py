import pytest

from cobarlab.cli import main
from cobarlab.simplicial import fixture
from cobarlab.ssetfile import ParseError, parse, save, serialize

FIXTURE_NAMES = ["S2", "S3", "D4sk1", "Delta2", "I", "TwoLoopsCell", "D5sk2"]


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_serialize_parse_roundtrip(name):
    sset = fixture(name)
    text = serialize(sset)
    back = parse(text)
    assert back.name == sset.name
    assert back.gens == sset.gens
    assert back.faces == sset.faces
    assert back.reduced == sset.reduced
    assert back.one_reduced == sset.one_reduced
    assert serialize(back) == text  # parse-then-serialize is the identity


def test_parse_minimal():
    text = """
    # a point
    sset Pt reduced
    gen * dim=0
    """
    sset = parse(text)
    assert sset.gens == {"*": 0}
    # a point is 1-reduced; the weaker claim in the header holds
    assert sset.reduced and sset.one_reduced
    assert sset.validate_presentation(2).ok


def test_degeneracy_words_in_faces():
    text = (
        "sset X 1-reduced\n"
        "gen * dim=0\n"
        "gen c dim=2\n"
        "face c 0 = s_0 *\n"
        "face c 1 = s_0 *\n"
        "face c 2 = s_0 *\n")
    sset = parse(text)
    assert sset.faces[("c", 0)].degens == (0,)
    assert serialize(sset) == text


@pytest.mark.parametrize("bad,lineno", [
    ("gen x dim=1", 1),                                # before header
    ("sset X\nsset Y", 2),                             # duplicate header
    ("sset X\ngen a dim=-1", 2),                       # bad dimension
    ("sset X\ngen a dim=1\nface a 5 = a", 3),          # index out of range
    ("sset X\ngen a dim=1\nface a 0 = b", 3),          # unknown generator
    ("sset X\ngen v dim=0\ngen a dim=1\n"
     "face a 0 = s_1 v\nface a 1 = v", 4),             # bad degeneracy word
    ("sset X\nwhat now", 2),                           # unknown directive
    ("sset X\ngen a dim=1", 1),                        # missing face lines
])
def test_parse_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.lineno == lineno


# valid simplicial sets whose header claims what the generators contradict:
# L1 claims 1-reduced but has an edge, L2 claims reduced but has two vertices
PROBES = {
    "L1": ("sset L1 1-reduced\n"
           "gen * dim=0\ngen e dim=1\ngen c dim=2\n"
           "face e 0 = *\nface e 1 = *\n"
           "face c 0 = e\nface c 1 = e\nface c 2 = e\n"),
    "L2": ("sset L2 reduced\n"
           "gen u dim=0\ngen v dim=0\ngen e dim=1\ngen c dim=2\n"
           "face e 0 = v\nface e 1 = u\n"
           "face c 0 = s_0 v\nface c 1 = e\nface c 2 = e\n"),
}


@pytest.mark.parametrize("name", sorted(PROBES))
def test_contradicted_header_claim_is_refused(name):
    with pytest.raises(ParseError) as err:
        parse(PROBES[name])
    assert err.value.lineno == 1
    # without the claim the same generators parse and validate
    _, body = PROBES[name].split("\n", 1)
    sset = parse(f"sset {name}\n{body}")
    assert sset.validate_presentation(3).ok
    assert sset.reduced == (name == "L1") and not sset.one_reduced


def test_face_dimension_mismatch():
    text = (
        "sset X reduced\n"
        "gen * dim=0\n"
        "gen a dim=1\n"
        "gen c dim=2\n"
        "face a 0 = *\nface a 1 = *\n"
        "face c 0 = *\nface c 1 = a\nface c 2 = a\n")
    with pytest.raises(ParseError):
        parse(text)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_generated_fixture_validates(name, tmp_path, capsys):
    # by its name, and from the file that save writes of it
    path = tmp_path / f"{name}.sset"
    save(path, fixture(name))
    assert main(["validate", name]) == 0
    assert main(["validate", str(path)]) == 0
    by_name, by_path = capsys.readouterr().out.splitlines()
    assert by_path == by_name == f"{name}: valid up to dimension 4"
