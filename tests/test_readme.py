"""README's example commands run as documented, and its numbers are the code's.

Every `eprsim …`, `printf …` and `python scripts/…` line of README's fenced
bash blocks runs in order in one temp dir, since later lines read the files
earlier ones write, at the sizes README gives.  All run in this process:
`cli.main` for `eprsim`, a file write for `printf`, and `runpy` for a script.
Each constant, minimum, cap and budget limit README quotes is formatted from
the code and looked up in README's prose, so neither changes alone.
"""

from __future__ import annotations

import json
import math
import re
import runpy
import shlex
import sys
from pathlib import Path

import pytest

from eprsim import analysis, cli, config, emission, layers, measure, sampling
from eprsim.streams import stream

REPO = Path(__file__).resolve().parents[1]
PREFIXES = ("eprsim ", "printf ", "python scripts/")


def readme_commands() -> list[str]:
    """The command lines of README's ```bash blocks that start with a PREFIXES entry."""
    commands, in_bash = [], False
    for line in (REPO / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_bash = line == "```bash"
        elif in_bash and line.startswith(PREFIXES):
            commands.append(line)
    return commands


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _printf(tokens: list[str]) -> None:
    """`printf 'FORMAT' > FILE` for a format whose only escape is \\n."""
    assert len(tokens) == 4 and tokens[2] == ">", tokens
    assert "%" not in tokens[1] and "\\" not in tokens[1].replace("\\n", ""), tokens
    Path(tokens[3]).write_text(tokens[1].replace("\\n", "\n"))


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    commands = readme_commands()
    for prefix in PREFIXES:
        assert any(line.startswith(prefix) for line in commands), prefix
    monkeypatch.chdir(tmp_path)
    for line in commands:
        tokens = shlex.split(line, comments=True)
        if tokens[0] == "eprsim":
            code = cli.main(tokens[1:])
            out, err = capsys.readouterr()
            assert code == 0, f"{line}: {err}"
            json.loads(out, parse_constant=_refuse_constant)
        elif tokens[0] == "printf":
            _printf(tokens)
        else:
            monkeypatch.setattr(sys, "argv", tokens[1:])
            with pytest.raises(SystemExit) as exc:
                runpy.run_path(str(REPO / tokens[1]), run_name="__main__")
            assert exc.value.code == 0, f"{line}: {capsys.readouterr().err}"
            capsys.readouterr()


def _grouped(value: int) -> str:
    """An integer as README's prose writes it: digits in groups of three."""
    return f"{value:,}".replace(",", " ")


def _power_of_ten(value: float) -> str:
    exponent = round(math.log10(value))
    assert value == 10.0**exponent, value
    return f"1e{exponent}"


def _largest(fits) -> int:
    """The largest size, from 1 up, that `fits` admits."""
    low, high = 1, 2
    while fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    return low


def _largest_in_a_file(name: str, **sizes) -> int:
    """The largest size `name` of a universe file with the other `sizes`
    that the universe size rule admits."""
    def fits(value):
        try:
            config.check_budget("layers", {**sizes, name: value})
        except config.ConfigError:
            return False
        return True

    return _largest(fits)


def test_readme_quotes_the_code_constants(tmp_path):
    text = " ".join((REPO / "README.md").read_text(encoding="utf-8").split())
    rows, shares, chunk = layers.BLOCK_ROWS, analysis.BLOCK_SHARES, emission.CHUNK
    buckets = sampling.GUIDE_BUCKETS
    norm_exponent = -math.log2(measure.UNIT_NORM_TOL)
    assert norm_exponent == int(norm_exponent), measure.UNIT_NORM_TOL
    superscript = str(int(norm_exponent)).translate(str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹"))
    universe = tmp_path / "u.universe"
    layers.save_universe(layers.build_universe(4, 2, 10_000, stream(1)), universe)
    fragments = [
        f"take at most {_grouped(rows)} rows at a time (`layers.BLOCK_ROWS`",
        f"at most {_grouped(rows)} rows and {rows * 32 * 8 >> 10} KiB",
        f"`layers.BLOCK_ROWS` ({_grouped(rows)}) pairs",
        f"`analysis.BLOCK_SHARES` ({_grouped(shares)}) shares, that is {_grouped(shares)} // K "
        f"pairs ({_grouped(shares // 5)} at K = 5)",
        f"the emission times, {_grouped(chunk)} at a time",
        f"buffers for {_grouped(chunk)} emissions",
        f"`emission.CHUNK` = {_grouped(chunk)} at a time",
        f"`sampling.BATCH` ({_power_of_ten(sampling.BATCH)}) trials",
        f"splits into {buckets} buckets",
        f"`i / {buckets}` to `(i + 1) / {buckets} - 2^-53`",
        f"{_grouped(sampling.SUB_CHUNK)} trials ({_grouped(sampling.SUB_CHUNK // 4)} lane words)",
        f"once {_grouped(sampling.REFINE_BATCH)} of them wait (`sampling.REFINE_BATCH`)",
        f"so the CLI limit is n = {_largest_in_a_file('n', L=1, layers=1)}:",
        f"`layers.MAX_SAVED_N` = {layers.MAX_SAVED_N}, where 3n+12 positions still fit `uint16`",
        f"a cap of {layers.HEADER_CAP} bytes (`layers.HEADER_CAP`)",
        f"after reading at most {layers.HEADER_CAP >> 10} KiB",
        f"`UNIT_NORM_TOL` (2⁻{superscript})",
        f"unit length (tolerance `{_power_of_ten(measure.SETTING_NORM_TOL)}`)",
        f"would pass {config.BUDGET >> 30} GiB",
        f"At M = 1e4 pairs (n = 4, L = 2) this is {_grouped(universe.stat().st_size)} bytes.",
        f"L with M at 8·L·(M + 2·min(M, {_grouped(rows)}))",
        f"8·L·(M + min(M, {_grouped(rows)}) + 16·(3n+14))",
        f"The rule stops n at {_largest_in_a_file('n', L=1, layers=1)}, and at n = 4 and one "
        f"pair L at {_grouped(_largest_in_a_file('L', n=4, layers=1))}.",
    ]
    assert [fragment for fragment in fragments if fragment not in text] == []
    minimums = re.search(r"checked against one minimum: (.*?) a smaller value", text)[1]
    caps = re.search(r"The caps are (.*?) A size has one cap", text)[1]
    for sentence, bounds, relation in ((minimums, config.MINIMUMS, ">="),
                                       (caps, config.MAXIMUMS, "<=")):
        for name, value in bounds.items():
            assert re.search(rf"`(--)?{name} {relation} {value}`", sentence), (name, value)
