"""Analysis layer: bounds and tables."""


from repro.analysis import bounds
from repro.analysis.tables import format_number, render_table

# ---- bounds ----------------------------------------------------------------


def test_bound_holds_for():
    bound = bounds.protocol_a_work(100, 16)
    assert bound.value == 300
    assert bound.holds_for(300)
    assert not bound.holds_for(301)


def test_bounds_match_paper_formulas():
    assert bounds.protocol_a_messages(100, 16).value == 9 * 16 * 4
    assert bounds.protocol_b_messages(100, 16).value == 10 * 16 * 4
    assert bounds.protocol_b_rounds(100, 16).value == 300 + 128
    assert bounds.protocol_c_work(100, 16).value == 132
    assert bounds.protocol_d_rounds(128, 16, 0).value == 8 + 2
    assert bounds.protocol_d_messages(128, 16, 2).value == 10 * 256


def test_n_prime_in_work_bounds():
    # n' = max(n, t): the work bound never drops below 3t.
    assert bounds.protocol_a_work(4, 16).value == 48


def test_c_round_bound_is_astronomical():
    assert bounds.protocol_c_rounds(32, 8).value > 2.0 ** 40


# ---- tables ------------------------------------------------------------------


def test_format_number_cases():
    assert format_number(1234567) == "1,234,567"
    assert format_number(10**16) == "1.000e+16"
    assert format_number(2**1295) == "6.821e+389"  # beyond float range
    assert format_number(True) == "yes"
    assert format_number(None) == "-"
    assert format_number(3.14159) == "3.14"
    assert format_number("text") == "text"


def test_render_table_is_markdown():
    table = render_table(["a", "b"], [[1, 2], [3, 4]], title="T")
    lines = table.splitlines()
    assert lines[0] == "### T"
    assert lines[2].startswith("| a")
    assert set(lines[3]) <= {"|", "-"}
    assert "| 1" in lines[4]

