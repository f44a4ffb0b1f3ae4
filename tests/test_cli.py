"""End-to-end command tests: parsing, reports, exit codes, determinism."""

from __future__ import annotations

import hashlib
import io
import json
import time
from fractions import Fraction

import pytest

from causalres import (
    BUILTIN,
    DuplicateName,
    MalformedWeight,
    NonNormalized,
    TableOutOfRange,
)
from causalres.cli import main, parse_resource_file, serialize_resources

F = Fraction

BIT4_TEXT = """\
{"name": "probe", "domain": 2, "codomain": 2}
{"map": [1, 0], "prob": "1/3"}
{"map": [0, 0], "prob": "2/3"}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# parsing


def test_parse_a_single_resource():
    [(name, dist)] = parse_resource_file(BIT4_TEXT)
    assert name == "probe"
    assert dist == BUILTIN["bit4"]


def test_parse_adds_the_weights_of_a_repeated_map():
    text = BIT4_TEXT.replace('"1/3"', '"1/6"') + '{"map": [1, 0], "prob": "1/6"}\n'
    [(_, dist)] = parse_resource_file(text)
    assert dist == BUILTIN["bit4"]


def test_parse_rejects_short_weights():
    text = BIT4_TEXT.replace('"2/3"', '"1/2"')
    with pytest.raises(NonNormalized) as err:
        parse_resource_file(text)
    assert "probe" in str(err.value)


def test_parse_rejects_out_of_range_tables():
    text = BIT4_TEXT.replace("[0, 0]", "[0, 2]")
    with pytest.raises(TableOutOfRange) as err:
        parse_resource_file(text)
    assert "line 3" in str(err.value)


@pytest.mark.parametrize(
    "table",
    ["[0]", "[0, 0, 0]", "[true, 0]", "[1.0, 0]", '"01"', "{}", "null", "[-1, 0]"],
    ids=["short", "long", "bool", "float", "string", "object", "null", "negative"],
)
def test_parse_rejects_malformed_tables(table):
    # Out of range is `test_parse_rejects_out_of_range_tables`.
    text = BIT4_TEXT.replace("[0, 0]", table)
    with pytest.raises(TableOutOfRange) as err:
        parse_resource_file(text)
    assert "resource 'probe' line 3" in str(err.value)


@pytest.mark.parametrize(
    "header, message",
    [
        ('{"name": "second", "domain": true, "codomain": 2}', " must be "),
        ('{"name": "second", "domain": 2, "codomain": "2"}', " must be "),
        ('{"name": "second", "domain": 0, "codomain": 2}', " must be "),
        ('{"name": "second", "domain": 2}', r" found \['domain', 'name'\]$"),
        ('{"name": "", "domain": 2, "codomain": 2}', " must be "),
        ('{"name": 5, "domain": 2, "codomain": 2}', " must be "),
    ],
    ids=["bool-size", "string-size", "zero-size", "missing-size", "empty-name", "number-name"],
)
def test_parse_rejects_malformed_headers(header, message):
    text = BIT4_TEXT + header + "\n"
    with pytest.raises(ValueError, match="line 4: .*" + message) as err:
        parse_resource_file(text)
    assert type(err.value) is ValueError


@pytest.mark.parametrize(
    "line",
    [
        '{"map": [1, 0], "prob": "1/3"',
        "[1, 0]",
        '{"prob": "1/3"}',
        '{"map": [' + "9" * 5000 + ', 0], "prob": "1/3"}',
    ],
    ids=["invalid-json", "not-an-object", "neither-header-nor-entry", "digit-limit"],
)
def test_parse_names_the_line_of_a_malformed_object(line):
    # Past Python's integer digit limit, json.loads raises a plain ValueError.
    text = BIT4_TEXT.replace('{"map": [1, 0], "prob": "1/3"}', line)
    with pytest.raises(ValueError, match="^line 2: ") as err:
        parse_resource_file(text)
    assert type(err.value) is ValueError


KEYS_EXPECTED = (
    "expected the keys of a header (codomain, domain, name) or of an entry (map, prob)"
)


@pytest.mark.parametrize(
    "entry, found",
    [
        ({"map": [1, 1], "prob": "1"}, "['codomain', 'domain', 'map', 'name', 'prob']"),
        ({"map": [1, 1]}, "['codomain', 'domain', 'map', 'name']"),
        ({"prob": "1"}, "['codomain', 'domain', 'name', 'prob']"),
    ],
    ids=["map-and-prob", "map", "prob"],
)
def test_a_header_line_cannot_carry_an_entry(monkeypatch, capsys, entry, found):
    header = json.dumps({"name": "a", "domain": 2, "codomain": 2, **entry})
    text = f'{header}\n{{"map": [0, 1], "prob": "1"}}\n'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "monotones", "-")
    assert code == 2
    assert out == ""
    assert err == f"error: line 1: {KEYS_EXPECTED}, found {found}\n"


@pytest.mark.parametrize(
    "header, entry, lineno, found",
    [
        (
            {"name": "a", "domain": 2, "codomain": 2, "extra": 1},
            {"map": [0, 1], "prob": "1"},
            1,
            "['codomain', 'domain', 'extra', 'name']",
        ),
        (
            {"name": "a", "domain": 2, "codomain": 2},
            {"map": [0, 1], "prob": "1", "probb": "1/2"},
            2,
            "['map', 'prob', 'probb']",
        ),
        (
            {"name": "a", "domain": 2, "codomain": 2},
            {"map": [0, 1], "prob": "1", "codomain": 3},
            2,
            "['codomain', 'map', 'prob']",
        ),
    ],
    ids=["header-extra", "entry-probb", "entry-codomain"],
)
def test_a_line_with_an_unknown_key_is_refused(
    monkeypatch, capsys, header, entry, lineno, found
):
    text = f"{json.dumps(header)}\n{json.dumps(entry)}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "monotones", "-")
    assert code == 2
    assert out == ""
    assert err == f"error: line {lineno}: {KEYS_EXPECTED}, found {found}\n"


def test_parse_rejects_numeric_probabilities():
    text = BIT4_TEXT.replace('"1/3"', "0.3333")
    with pytest.raises(MalformedWeight):
        parse_resource_file(text)


def test_parse_rejects_unparseable_fractions():
    text = BIT4_TEXT.replace('"1/3"', '"one third"')
    with pytest.raises(MalformedWeight) as err:
        parse_resource_file(text)
    assert "line 2" in str(err.value)


def test_parse_rejects_negative_probabilities():
    text = BIT4_TEXT.replace('"2/3"', '"-2/3"')
    with pytest.raises(MalformedWeight) as err:
        parse_resource_file(text)
    assert "line 3" in str(err.value)
    assert "negative" in str(err.value)


def test_parse_refuses_an_exponent_at_once():
    # Fraction("1e-10000000") would first build a ten-million-digit integer.
    text = BIT4_TEXT.replace('"1/3"', '"1e-10000000"')
    start = time.perf_counter()
    with pytest.raises(MalformedWeight) as err:
        parse_resource_file(text)
    assert time.perf_counter() - start < 1
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "prob",
    ["1_0/30", "\u0661/3", "\uff11/3", " 1/3", "1/3\n"],
    ids=["underscore", "arabic-indic digit", "fullwidth digit", "leading space", "newline"],
)
def test_parse_accepts_only_ascii_digits_without_padding(monkeypatch, capsys, prob):
    # Each of these is 1/3 to `Fraction` on some Python version.
    text = BIT4_TEXT.replace('"1/3"', json.dumps(prob))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "monotones", "-")
    assert code == 2
    assert out == ""
    assert err == f"error: resource 'probe' line 2: cannot parse fraction {prob!r}\n"


def test_parse_accepts_integers_fractions_and_decimals():
    text = BIT4_TEXT.replace('"1/3"', '"0.25"').replace('"2/3"', '"3/4"')
    [(_, dist)] = parse_resource_file(text)
    assert sorted(w for _, w in dist.items()) == [F(1, 4), F(3, 4)]
    [(_, dist)] = parse_resource_file(
        '{"name": "one", "domain": 2, "codomain": 2}\n{"map": [0, 1], "prob": "1"}\n'
    )
    assert [w for _, w in dist.items()] == [1]


def test_parse_rejects_duplicate_names():
    text = BIT4_TEXT + BIT4_TEXT
    with pytest.raises(DuplicateName):
        parse_resource_file(text)


def test_parse_rejects_entries_before_any_header():
    with pytest.raises(ValueError) as err:
        parse_resource_file('{"map": [0, 1], "prob": "1"}\n')
    assert "line 1" in str(err.value)


def test_parse_skips_blank_lines():
    padded = "\n" + BIT4_TEXT.replace("\n", "\n\n")
    assert parse_resource_file(padded) == parse_resource_file(BIT4_TEXT)


def test_serialization_round_trips():
    pairs = [("a", BUILTIN["bit7"]), ("b", BUILTIN["trit_mix"])]
    assert parse_resource_file(serialize_resources(pairs)) == pairs


# subcommands


def test_monotones_report(capsys):
    code, out, err = run(capsys, "monotones", "bit5")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["m_beta"] == "1/3"
    assert report["m_abs_alpha"] == "1"
    assert report["m_gamma_beta"] == "1/3"
    assert report["beta_spectrum"] == ["2/3", "1/3"]


def test_monotones_on_free_resources_report_absent_alpha(capsys):
    code, out, _ = run(capsys, "monotones", "bit2")
    assert code == 0
    report = json.loads(out)
    assert report["m_abs_alpha"] is None
    assert report["m_beta"] == "0"


def test_convert_reports_both_directions(capsys):
    code, out, _ = run(capsys, "convert", "bit1", "bit2")
    assert code == 0
    forward, backward = map(json.loads, out.splitlines())
    assert forward["convertible"] is True
    assert forward["certificate"] == [
        {"pre": [0, 0], "post": [0, 1], "weight": "1"}
    ]
    assert backward["convertible"] is False
    assert backward["certificate"] is None


def test_convert_needs_exactly_two_resources(capsys):
    code, _, err = run(capsys, "convert", "bit1")
    assert code == 2
    assert "exactly 2" in err


def test_closure_counts_the_centered_vertices(capsys):
    code, out, _ = run(capsys, "closure", "bit4")
    assert code == 0
    report = json.loads(out)
    assert report["vertex_count"] == 6
    assert {"map": [0, 0], "prob": "1"} in [v[0] for v in report["vertices"]]


FOUR_LETTER_SOURCE = """\
{"codomain": 4, "domain": 4, "name": "src44"}
{"map": [0, 1, 1, 2], "prob": "1/4"}
{"map": [0, 1, 2, 3], "prob": "1/2"}
{"map": [3, 3, 3, 3], "prob": "1/4"}
"""


def test_four_letter_closure_finishes_within_five_seconds(monkeypatch, capsys):
    # The digest is of the stdout of the per-candidate closure, which took
    # 45 s on this input (Python 3.11, shared 2-vCPU machine).
    monkeypatch.setattr("sys.stdin", io.StringIO(FOUR_LETTER_SOURCE))
    start = time.perf_counter()
    code, out, _ = run(capsys, "closure", "-")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["vertex_count"] == 3508
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "4dad29203315855f3f966d78b2d9b85e7536f8701c53ec4af56efc1d22672a0e"
    )


def test_hasse_dot_output(capsys):
    code, out, _ = run(
        capsys, "hasse", "bit1", "bit2", "bit3", "bit4", "bit5", "bit6"
    )
    assert code == 0
    assert out.startswith("digraph hasse {")
    for edge in (
        '"bit1" -> "bit6";',
        '"bit3" -> "bit1";',
        '"bit4" -> "bit5";',
        '"bit4" -> "bit6";',
        '"bit5" -> "bit2";',
        '"bit6" -> "bit2";',
    ):
        assert edge in out
    assert out.count("->") == 6


def test_hasse_report_format(capsys):
    code, out, _ = run(capsys, "hasse", "--format", "report", "bit1", "bit3")
    assert code == 0
    report = json.loads(out)
    assert report["classes"] == [["bit1"], ["bit3"]]
    assert report["edges"] == [[1, 0]]


def test_hasse_merges_equivalent_resources_in_dot(capsys):
    _, out, _ = run(capsys, "hasse", "bit1", "incomp_a")
    assert '"bit1, incomp_a";' in out
    assert "->" not in out


def test_hasse_dot_refuses_two_classes_of_one_name(monkeypatch, capsys):
    reset = '{"name": "bit1", "domain": 2, "codomain": 2}\n{"map": [0, 0], "prob": "1"}\n'
    monkeypatch.setattr("sys.stdin", io.StringIO(reset))
    code, out, err = run(capsys, "hasse", "bit1", "-")
    assert code == 2
    assert out == ""
    assert "'bit1'" in err
    code, out, _ = run(capsys, "hasse", "bit1", "bit1")
    assert code == 0
    assert out == 'digraph hasse {\n  "bit1, bit1";\n}\n'


def test_game_report(capsys):
    code, out, _ = run(capsys, "game", "bit4")
    assert code == 0
    report = json.loads(out)
    assert report["guessing_probability"] == "2/3"
    assert report["posterior_connection"] == {"0": "1/5", "1": "1"}
    assert report["max_postselected"] == "1"


def test_game_with_a_skewed_prior(capsys):
    code, out, _ = run(capsys, "game", "--prior", "9/10,1/10", "bit2")
    assert code == 0
    report = json.loads(out)
    assert report["guessing_probability"] == "9/10"
    assert report["posterior_connection"] == {"0": "0", "1": "0"}


@pytest.mark.parametrize(
    "prior",
    [
        "1/2",
        "1/3,1/3,1/3",
        "half,half",
        "3/2,-1/2",
        "1/2,1/4",
        "1/2,1/0",
        "1_0/20,1/2",
        "\u0661/2,1/2",
    ],
)
def test_game_rejects_a_bad_prior(capsys, prior):
    code, out, err = run(capsys, "game", "--prior", prior, "bit1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_game_refuses_a_prior_exponent_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "game", "--prior", "1e-10000000,1", "bit1")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert err == "error: cannot parse prior '1e-10000000,1'\n"


def test_game_reports_unreachable_outputs_as_null(monkeypatch, capsys):
    stuck = '{"name": "stuck", "domain": 2, "codomain": 2}\n{"map": [0, 0], "prob": "1"}\n'
    monkeypatch.setattr("sys.stdin", io.StringIO(stuck))
    code, out, _ = run(capsys, "game", "-")
    assert code == 0
    report = json.loads(out)
    assert report["posterior_connection"] == {"0": "0", "1": None}


def test_ace_report(capsys):
    code, out, _ = run(capsys, "ace", "bit4")
    assert code == 0
    report = json.loads(out)
    assert report["ace"] == "-1/3"
    assert report["ace_dist"] == "-1/3"
    assert report["min_beta"] == "1/3"


# inputs and exit codes


def test_resources_from_files(tmp_path, capsys):
    path = tmp_path / "probe.jsonl"
    path.write_text(BIT4_TEXT, encoding="utf-8")
    code, out, _ = run(capsys, "monotones", str(path))
    assert code == 0
    assert json.loads(out)["name"] == "probe"


def test_resources_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(BIT4_TEXT))
    code, out, _ = run(capsys, "monotones", "-")
    assert code == 0
    assert json.loads(out)["m_gamma_beta"] == "1"


def test_unknown_resource_token(capsys):
    code, _, err = run(capsys, "monotones", "no_such_thing")
    assert code == 2
    assert "no_such_thing" in err


def test_parse_errors_exit_with_two(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text(BIT4_TEXT.replace('"2/3"', '"1/2"'), encoding="utf-8")
    code, _, err = run(capsys, "monotones", str(path))
    assert code == 2
    assert "probe" in err


def test_budget_exhaustion_exits_with_three(capsys):
    code, _, err = run(capsys, "--budget", "3", "convert", "bit1", "bit2")
    assert code == 3
    assert "budget" in err


def test_a_comb_count_too_long_to_print_exits_with_three(monkeypatch, capsys):
    header = json.dumps({"name": "wide", "domain": 1500, "codomain": 2})
    entry = json.dumps({"map": [0, 1] * 750, "prob": "1"})
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{header}\n{entry}\n"))
    code, out, err = run(capsys, "closure", "-")
    assert code == 3
    assert out == ""
    assert "budget" in err


def wide_point(monkeypatch, codomain: int) -> None:
    header = json.dumps({"name": "wide", "domain": 1, "codomain": codomain})
    entry = json.dumps({"map": [0], "prob": "1"})
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{header}\n{entry}\n"))


def test_a_huge_codomain_exits_with_three_at_once(monkeypatch, capsys):
    wide_point(monkeypatch, 10**7)
    start = time.perf_counter()
    code, out, err = run(capsys, "closure", "-")
    assert time.perf_counter() - start < 2
    assert code == 3
    assert out == ""
    assert err == (
        "error: 1^1 * 10000000^10000000 extremal combs exceed the budget of 1000000\n"
    )


def test_ace_refuses_a_wide_resource_at_once(monkeypatch, capsys):
    wide_point(monkeypatch, 10**6)
    start = time.perf_counter()
    code, out, err = run(capsys, "ace", "-")
    assert time.perf_counter() - start < 2
    assert code == 2
    assert out == ""
    assert err == "error: bit-to-bit operation on a 1->1000000 resource\n"


def test_game_of_a_wide_point_finishes_at_once(monkeypatch, capsys):
    wide_point(monkeypatch, 10**6)
    start = time.perf_counter()
    code, out, err = run(capsys, "game", "-")
    assert time.perf_counter() - start < 2
    assert code == 0
    assert json.loads(out) == {"guessing_probability": "1", "name": "wide"}
    assert err == ""


def test_monotones_of_a_wide_point_finish_at_once(monkeypatch, capsys):
    wide_point(monkeypatch, 10**4)
    start = time.perf_counter()
    code, out, _ = run(capsys, "monotones", "-")
    assert time.perf_counter() - start < 2
    assert code == 0
    report = json.loads(out)
    assert report["cumulative"] == ["0"] * 9999 + ["1"]


def test_budget_is_checked_before_the_identity_shortcut(capsys):
    code, out, err = run(capsys, "--budget", "3", "convert", "bit4", "bit4")
    assert code == 3
    assert out == ""
    assert err == "error: 16 extremal combs exceed the budget of 3\n"


def test_hasse_checks_the_budget_on_equal_resources(capsys):
    # bit1 and incomp_a are the same distribution under two labels, so the
    # only question hasse asks is a reflexive one.
    code, out, err = run(capsys, "--budget", "3", "hasse", "bit1", "incomp_a")
    assert code == 3
    assert out == ""
    assert err == "error: 16 extremal combs exceed the budget of 3\n"


def test_hasse_checks_the_budget_on_a_single_resource(capsys):
    code, out, err = run(capsys, "--budget", "3", "hasse", "bit4")
    assert code == 3
    assert out == ""
    assert err == "error: 16 extremal combs exceed the budget of 3\n"


def test_a_negative_budget_is_a_usage_error(capsys):
    code, out, err = run(capsys, "--budget", "-1", "convert", "bit1", "bit2")
    assert code == 2
    assert out == ""
    assert err == "error: budget must be a nonnegative integer\n"


def test_budget_flag_after_the_subcommand(capsys):
    code, _, _ = run(capsys, "convert", "bit1", "bit2", "--budget", "3")
    assert code == 3


def test_one_process_carries_no_state_between_calls(capsys):
    # The parser is built once per process; nothing one call parses may
    # leak into the next.
    code, _, _ = run(capsys, "--budget", "3", "convert", "bit1", "bit2")
    assert code == 3
    code, out, err = run(capsys, "convert", "bit1", "bit2")
    assert code == 0 and err == "" and len(out.splitlines()) == 2
    code, _, _ = run(capsys, "convert", "bit1", "bit2", "--budget", "3")
    assert code == 3
    with pytest.raises(SystemExit) as exit_:
        main(["convert"])
    assert exit_.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "hasse", "--format", "report", "bit1", "bit3")
    assert code == 0 and json.loads(out)["edges"] == [[1, 0]]
    code, out, _ = run(capsys, "hasse", "bit1", "bit3")
    assert code == 0 and out.startswith("digraph hasse {")


def test_reports_are_byte_deterministic(capsys):
    _, first, _ = run(capsys, "hasse", "bit4", "bit5", "bit2")
    _, second, _ = run(capsys, "hasse", "bit4", "bit5", "bit2")
    assert first == second
    _, third, _ = run(capsys, "closure", "bit8")
    _, fourth, _ = run(capsys, "closure", "bit8")
    assert third == fourth
