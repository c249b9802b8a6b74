"""Fuzz test of the command line: ``cli.main`` runs in-process on drawn
datasets and options, and every run must return one of the documented exit
codes (0 to 4) with no exception escaping it.

Datasets are files of at most 60 numeric rows of small integers (so exact
duplicates are common) with up to two cells of ``±1e308`` or ``1e-320``;
fields are split by commas or whitespace. A wild dataset may also be random
bytes, hold ``nan`` or ``inf`` cells or rows of another width, or be empty.
Synthetic specs either stay small (count at most 200, dim at most 4) or have
a count times dim above numpy's largest index, which validation refuses
before any array is sized.

Most runs are valid, so that they reach the engine: each run draws at most
one input to take wild values (integers from -10**30 to 10**30, a power of
``nan``, ``inf`` or 0.5, a beta or epsilon at or past 0 and 1, a malformed
spec or dataset), while the others keep values the harness accepts,
extremes included: 10**30 for the window, k, phi and the periods,
``--p 1e308``, and a beta or epsilon near 0 or 1. A value that makes every
update rebuild every layer comes with a stream of at most 20 points. pytest
turns an unguarded numpy warning into an error, so such a warning fails the
test too. The run is derandomized.
"""
from __future__ import annotations

import numpy as np
from hypothesis import event, given, settings, strategies as st

from dynkmed.cli import main as cli_main

HUGE = 10**30
WILD_INTEGERS = st.one_of(st.integers(-3, 3), st.sampled_from([-HUGE, 2**63, HUGE]))
# the accepted values of each integer option, extremes included
INTEGERS = {
    "--window": st.integers(1, 30) | st.just(HUGE),
    "--k": st.integers(1, 6) | st.just(HUGE),
    "--phi": st.integers(1, 12) | st.just(HUGE),
    "--queries": st.integers(0, 4),
    "--check-every": st.integers(0, 5) | st.just(HUGE),
    "--seed": st.integers(0, 5) | st.just(HUGE),
    "--shuffle-seed": st.none() | st.integers(0, 5) | st.just(HUGE),
    "--baseline": st.none() | st.integers(1, 5) | st.just(HUGE),
}
BETAS = ["1e-16", "1e-9", "0.01", "0.5", "0.99", "0.999999999", "0.9999999999999999"]
EPSILONS = ["1e-9", "0.01", "0.2", "0.9", "0.999999999"]
WILD_FRACTIONS = ["0", "-0.5", "5e-324", "1e-300", "1", "1.000000000001", "nan"]
POWERS = ["1", "2", "1.000000000001", "1e308"]
EXTREMES = ["1e308", "-1e308", "1e-320"]
NON_FINITE = ["nan", "inf", "-inf"]
WILD = ["--beta", "--epsilon", "--p", "--limit", "data", *INTEGERS]


def rebuilds_every_update(value: str) -> bool:
    """Whether a beta or epsilon this small makes every update rebuild every layer."""
    return 0.0 < float(value) < 0.05


@st.composite
def dataset(draw, rows: int, wild: bool) -> bytes:
    if wild and draw(st.booleans()):
        return draw(st.binary(max_size=200))
    dim, sep = draw(st.integers(1, 4)), draw(st.sampled_from([",", " ", ", ", "\t"]))
    lines = []
    for _ in range(draw(st.integers(0 if wild else 1, rows))):
        width = draw(st.integers(0, 5)) if wild and not draw(st.integers(0, 5)) else dim
        lines.append(draw(st.lists(st.integers(-3, 3).map(str), min_size=width, max_size=width)))
    for _ in range(draw(st.integers(0, 2))):  # a few extreme cells at drawn places
        line = draw(st.sampled_from(lines)) if lines else []
        if line:
            line[draw(st.integers(0, len(line) - 1))] = draw(st.sampled_from(EXTREMES + NON_FINITE * wild))
    return "\n".join(map(sep.join, lines)).encode()


def synthetic(count: int, wild: bool) -> st.SearchStrategy[str]:
    if not wild:
        return st.tuples(st.integers(1, 6), st.integers(1, 4), st.integers(1, count)).map("g:%d:%d:%d".__mod__)
    top = np.iinfo(np.intp).max
    bad = st.tuples(st.integers(-1, 6), st.integers(-1, 4), st.integers(-1, count))
    refused = st.tuples(st.integers(1, 6), st.integers(2, 4), st.sampled_from([top // 2 + 1, top + 1, HUGE]))
    return (bad | refused).map("g:%d:%d:%d".__mod__) | st.sampled_from(["g:1:2", "g:a:2:5"])


@st.composite
def argv(draw, folder) -> list[str]:
    wild = draw(st.sampled_from([None] * len(WILD) + WILD))
    beta = draw(st.sampled_from(WILD_FRACTIONS if wild == "--beta" else BETAS))
    epsilon = draw(st.sampled_from(WILD_FRACTIONS if wild == "--epsilon" else EPSILONS))
    power = draw(st.sampled_from(["nan", "0.5", "inf"] if wild == "--p" else POWERS))
    small = rebuilds_every_update(beta) or rebuilds_every_update(epsilon)
    args = ["--out", str(folder / "metrics.csv"), "--beta", beta, "--epsilon", epsilon, "--p", power,
            "--offset", draw(st.sampled_from(["none", "inv-n"]))]
    if draw(st.booleans()):
        (folder / "data.txt").write_bytes(draw(dataset(20 if small else 60, wild == "data")))
        args += ["--dataset", str(folder / "data.txt")]
    else:
        args += ["--synthetic", draw(synthetic(20 if small else 200, wild == "data"))]
    values = {option: draw(WILD_INTEGERS if option == wild else accepted) for option, accepted in INTEGERS.items()}
    values["--limit"] = draw(WILD_INTEGERS if wild == "--limit" else st.none() | st.sampled_from(
        [values["--window"], values["--window"] + 3, HUGE]))
    for option, value in values.items():
        if value is not None:
            args += [option, f"static:{value}" if option == "--baseline" else str(value)]
    return args


@settings(derandomize=True, max_examples=250, deadline=None)
@given(data=st.data())
def test_every_cli_run_exits_with_a_documented_code(data, tmp_path_factory):
    folder = tmp_path_factory.getbasetemp() / "cli-fuzz"
    folder.mkdir(exist_ok=True)
    code = cli_main(data.draw(argv(folder)))
    event(f"exit {code}")
    assert code in (0, 1, 2, 3, 4)
