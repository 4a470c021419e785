import pytest

from cglogic.logics import ALL_LOGICS, D, E, ID, SI, SID, LogicId


@pytest.mark.parametrize(
    "text, logic",
    [
        ("E", E),
        ("e", E),
        ("ε", E),
        (" ε\t", E),
        ("epsilon", E),
        ("Epsilon", E),
        ("EPSILON", E),
        ("MCL", E),
        ("mcl", E),
        ("CL", SID),
        (" cl ", SID),
        ("D", D),
        ("is", SI),
        ("Si", SI),
        ("DI", ID),
        ("dsi", SID),
        ("ISD", SID),
        ("  sid\n", SID),
    ],
)
def test_from_string_accepts_names_and_aliases(text, logic):
    assert LogicId.from_string(text) == logic


@pytest.mark.parametrize("text", ["", "   ", "SS", "X", "SIDX", "CLX", "E S"])
def test_from_string_rejects_other_text(text):
    with pytest.raises(ValueError, match="unknown logic"):
        LogicId.from_string(text)


def test_from_string_reads_every_name_back():
    for logic in ALL_LOGICS:
        assert LogicId.from_string(logic.name) == logic
        assert LogicId.from_string(str(logic).lower()) == logic
