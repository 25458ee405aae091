"""The README's examples run, and its claims about the DSL and oracle hold."""

import re
import shlex
from pathlib import Path

import pytest

from varncode import OracleTooLargeError, exact_opt, parse_cost_spec, prepare
from varncode.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title):
    return README.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def fenced(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, flags=re.S)


def test_cost_table_specs_parse():
    rows = re.findall(r"^\| `([^`]+)`", section("Cost alphabets"), flags=re.M)
    assert len(rows) == 8
    for text in rows:
        parse_cost_spec(text)


def test_rll_costs_run_from_a_to_b_rescaled():
    assert "`rll:a,b`: costs a, a+1, ..., b" in README
    assert parse_cost_spec("rll:2,4").costs == (1.0, 1.5, 2.0)


def test_oracle_limit_counts_letters():
    assert "at most 4 letters" in README
    pin = prepare([0.5, 0.5])
    assert exact_opt(pin, parse_cost_spec("finite:1,1,1,1")).opt_cost == 1.0
    with pytest.raises(OracleTooLargeError):
        exact_opt(pin, parse_cost_spec("finite:1,1,1,1,1"))


def test_readme_names_no_removed_option():
    assert "dominator" not in README
    assert "--tol" not in README
    assert "CSV" not in section("Command line")


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "probs.txt").write_text("0.4\n0.3\n0.2\n0.1\n")
    monkeypatch.chdir(tmp_path)
    (block,) = fenced(section("Command line"), "sh")
    commands = [shlex.split(line) for line in block.splitlines()]
    assert len(commands) == 6
    for argv in commands:
        assert argv[0] == "varncode"
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)


def test_quick_start_runs(capsys):
    (block,) = fenced(section("Quick start"), "python")
    exec(block, {})
    assert capsys.readouterr().out
