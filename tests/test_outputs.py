"""Byte-level checks of the CSV outputs.

The three numeric writers share ``write_table``; it must write the bytes
that csv.writer with format(v, ".17g") per value wrote, "\\r\\n" line ends
included, for any float: its exact decimals, their rounding and the %g
layout are checked here against Python's own formatting.  The shipped
configs must reproduce the recorded CSVs and, where the recorded copy is
current, the report without ``runtime_seconds`` (without
``results.diagnostics`` either, where only that section is stale).
"""

import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quasishadow.applications import ConjugacyMap
from quasishadow.cli import main
from quasishadow.orbits import _ROW_CHUNK, PseudoOrbit, write_table
from quasishadow.solver import ShadowResult
from quasishadow.torus import dist

from oracles import csv_writer_bytes

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "perfbench" / "reference" / "shipped"

BELOW_ONE = math.nextafter(1.0, 0.0)
# rows of awkward values: nan, infinities, signed zero, the smallest subnormal,
# the float just below 1, and plain fractions
AWKWARD = np.array(
    [
        [math.nan, math.inf, -math.inf],
        [-0.0, 5e-324, BELOW_ONE],
        [0.1, 1.0 / 3.0, 1e300],
        [0.0, -2.5e-17, 0.7],
    ]
)


def test_pseudo_orbit_csv_bytes(tmp_path):
    orbit = PseudoOrbit(AWKWARD, k_start=-2)
    orbit.write_csv(tmp_path / "orbit.csv")
    rows = [[int(k)] + list(p) for k, p in zip(orbit.ks, orbit.points)]
    expected = csv_writer_bytes(tmp_path / "oracle.csv", ["k", "x1", "x2", "x3"], rows)
    assert (tmp_path / "orbit.csv").read_bytes() == expected
    assert expected.count(b"\r\n") == len(AWKWARD) + 1


@pytest.mark.parametrize("corrections", [AWKWARD[:, 0], AWKWARD[:, 2]], ids=["signed_zero", "scalar"])
def test_shadow_result_csv_bytes(tmp_path, corrections):
    # every variant reports one center time per point; correction_norm is its size
    x, y = AWKWARD, np.roll(AWKWARD, 1, axis=1)
    res = ShadowResult(
        variant="tau1", ks=np.arange(-3, 1), x=x, y=y, corrections=corrections,
        diagnostics=None, defect_index=0, max_trace_dist=0.0, step_residual=0.0, center_residual=0.0,
        delta_history=None, cyclic=False,
    )
    with np.errstate(invalid="ignore", over="ignore"):
        res.write_csv(tmp_path / "trajectory.csv")
        dd, cn = dist(x, y), [abs(t) for t in corrections.tolist()]
    rows = [[int(k)] + list(x[i]) + list(y[i]) + [dd[i], cn[i]] for i, k in enumerate(res.ks)]
    header = ["k", "x1", "x2", "x3", "y1", "y2", "y3", "dist", "correction_norm"]
    expected = csv_writer_bytes(tmp_path / "oracle.csv", header, rows)
    assert (tmp_path / "trajectory.csv").read_bytes() == expected


def test_conjugacy_map_csv_bytes(tmp_path):
    grid = np.abs(AWKWARD[::-1])
    cmap = ConjugacyMap(
        grid=grid, values=AWKWARD, values_at_g=None, center_at_g=None, window=1,
        displacement=AWKWARD[:, 0], residuals=AWKWARD[:, 1], perturbation_size=0.0,
        max_displacement=0.0, residual_max=0.0, residual_mean=0.0, center_residual=0.0,
        failures=[],
    )
    cmap.write_csv(tmp_path / "map.csv")
    rows = [
        list(grid[i]) + list(AWKWARD[i]) + [AWKWARD[i, 0], AWKWARD[i, 1]]
        for i in range(len(grid))
    ]
    header = ["x1", "x2", "x3", "h1", "h2", "h3", "displacement", "residual"]
    expected = csv_writer_bytes(tmp_path / "oracle.csv", header, rows)
    assert (tmp_path / "map.csv").read_bytes() == expected


@pytest.fixture(scope="module")
def table_bytes(tmp_path_factory):
    """(written, expected): write_table's bytes and csv.writer's for the same table."""
    out = tmp_path_factory.mktemp("tables")

    def run(table, index=True):
        table = np.asarray(table, float)
        header = [f"c{i}" for i in range(table.shape[1])]
        write_table(out / "table.csv", header, table, index=index)
        rows = [[int(r[0])] + r[1:] if index else r for r in table.tolist()]
        return (out / "table.csv").read_bytes(), csv_writer_bytes(out / "oracle.csv", header, rows)

    return run


def _decimal_edges() -> list[float]:
    """Values where the 17 digits or their layout change."""
    powers = [float(f"1e{e}") for e in range(-30, 21)]
    values = powers + [math.nextafter(p, s) for p in powers for s in (0.0, math.inf)]
    # exact values of 18 significant digits ending in 5: ties at 17 digits, in
    # fixed notation (E = 15 and E = -1) and in exponent notation (E = -5)
    values += [(2**52 + j) / 4 for j in range(1, 40, 2)]
    values += [j / 2**18 for j in range(26215, 26255, 2)]
    values += [j / 2**22 for j in range(43, 420, 14)]
    # the exact range and the switch from fixed to exponent notation
    values += [1e-6, 1e16, 1e-4, 1e-5, 9.99995e-5, 0.000099999999999999995, 123456.78e-9]
    return values + [-v for v in values] + [0.0, -0.0]


def test_write_table_decimal_edges(table_bytes):
    written, expected = table_bytes(np.array(_decimal_edges()).reshape(-1, 1), index=False)
    assert written == expected


@pytest.mark.parametrize("index", [0, -1, -7, 10**15, -(10**15), 2**53, -(2**53)])
def test_write_table_index_values(table_bytes, index):
    written, expected = table_bytes([[index, 0.5]])
    assert written == expected


@pytest.mark.parametrize("rows", [0, 1, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1])
def test_write_table_chunk_edges(table_bytes, rows):
    r = np.random.default_rng(rows)
    values = r.random((rows, 2)) * 10.0 ** r.integers(-8, 17, (rows, 2))
    table = np.column_stack([np.arange(rows) - rows // 2, values])
    written, expected = table_bytes(table)
    assert written == expected
    assert written.count(b"\r\n") == rows + 1


any_float = st.one_of(
    st.floats(),
    st.floats(1e-6, 1e16),
    st.floats(-1.0, 1.0),
    st.integers(-(10**17), 10**17).map(float),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(0, 6),
    cols=st.integers(1, 4),
    index=st.booleans(),
    data=st.data(),
)
def test_write_table_matches_csv_writer(table_bytes, rows, cols, index, data):
    values = data.draw(st.lists(any_float, min_size=rows * cols, max_size=rows * cols))
    table = np.array(values, float).reshape(rows, cols)
    if index:
        ks = data.draw(st.lists(st.integers(-(2**53), 2**53), min_size=rows, max_size=rows))
        table = np.column_stack([np.array(ks, float), table])
    written, expected = table_bytes(table, index)
    assert written == expected


# shadow_tau3_skew_trajectory.csv.gz predates the closed-form splitting and
# its series length derived from kappa, which moved that trajectory by at
# most 2.47e-16; the recorded copy is stale
STALE = {"shadow_tau3_skew_trajectory.csv"}
# reports recorded with a matching digest; the shadow_tau1, shadow_tau3_skew
# and close_leaf reports are stale: their diagnostics sections changed with
# the closed-form splitting and the closed-form admissibility bounds, and the
# copies wait for a re-recording of the benchmark references
CURRENT_REPORTS = ["stability_alpha", "stability_translation", "sweep_noise"]
# reports whose recorded copies are stale under results.diagnostics only; every
# other key is pinned.  shadow_tau3_skew stays out: its results moved as well
DIAGNOSTICS_STALE = ["shadow_tau1", "close_leaf"]
# every config under configs/, so a new one needs recorded copies of its CSVs
SHIPPED_CONFIGS = sorted(path.stem for path in (ROOT / "configs").glob("*.json"))


@pytest.fixture(scope="module")
def shipped_outputs(tmp_path_factory):
    """Output directory of a shipped config, run through ``cli.main`` once per module."""
    done = {}

    def run(config):
        if config not in done:
            out = tmp_path_factory.mktemp(config)
            path = ROOT / "configs" / f"{config}.json"
            kind = json.loads(path.read_text())["kind"]
            assert main([kind, "--config", str(path), "--out", str(out), "--quiet"]) == 0
            done[config] = out
        return done[config]

    return run


def _canonical_report(raw: bytes, diagnostics: bool = True) -> str:
    """Report text without its runtime field (and the results' diagnostics), keys sorted."""
    report = json.loads(raw)
    report.pop("runtime_seconds", None)
    if not diagnostics:
        del report["results"]["diagnostics"]
    return json.dumps(report, sort_keys=True, indent=2)


@pytest.mark.parametrize("config", SHIPPED_CONFIGS)
def test_shipped_config_csvs_match_reference(shipped_outputs, config):
    out = shipped_outputs(config)
    written = sorted(p.name for p in out.glob(f"{config}_*.csv"))
    assert written
    for name in written:
        if name in STALE:
            continue
        with gzip.open(SHIPPED / f"{name}.gz", "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name


@pytest.mark.parametrize("config", CURRENT_REPORTS + DIAGNOSTICS_STALE)
def test_shipped_config_reports_match_reference(shipped_outputs, config):
    name = f"{config}_report.json"
    diagnostics = config not in DIAGNOSTICS_STALE
    with gzip.open(SHIPPED / f"{name}.gz", "rb") as fh:
        recorded = _canonical_report(fh.read(), diagnostics)
    assert _canonical_report((shipped_outputs(config) / name).read_bytes(), diagnostics) == recorded


@pytest.mark.parametrize("rows", [0, 1, _ROW_CHUNK - 1, _ROW_CHUNK, _ROW_CHUNK + 1])
def test_write_table_prefix_files_match_separate_tables(tmp_path, rows):
    # a trajectory and its orbit from one pass: the orbit file holds the
    # first four columns, the bytes of a table of those columns alone; a
    # narrower file cut first must not change the wider one cut after it
    values = np.resize(AWKWARD, (rows, 3))
    table = np.column_stack([np.arange(rows) - rows // 2, values, values[:, ::-1], values[:, :2]])
    header = ["k", "x1", "x2", "x3", "y1", "y2", "y3", "dist", "correction_norm"]
    widths = (2, 4)
    prefixes = [(tmp_path / f"cut{w}.csv", header[:w]) for w in widths]
    write_table(tmp_path / "all.csv", header, table, prefixes=prefixes)
    for w in (*widths, len(header)):
        write_table(tmp_path / "alone.csv", header[:w], table[:, :w])
        cut = tmp_path / ("all.csv" if w == len(header) else f"cut{w}.csv")
        assert cut.read_bytes() == (tmp_path / "alone.csv").read_bytes(), w
        assert cut.read_bytes().count(b"\r\n") == rows + 1


@st.composite
def short_decimals(draw):
    """+-N / 2^m with N odd: its 17 digits are those of N * 5^m, then zeros.

    The last nonzero digit falls on any place 1-16, so into each of the
    four digit groups write_table strips trailing zeros from.
    """
    place = draw(st.integers(1, 16))
    m = draw(st.integers(0, 22))
    lo, hi = -(-(10**place) // 5**m), min((10 ** (place + 1) - 1) // 5**m, 2**53)
    assume(lo <= hi)
    n = draw(st.integers(lo, hi))
    assume(n % 2 and n % 5)
    assert len(str(n * 5**m)) == place + 1
    return draw(st.sampled_from([1.0, -1.0])) * n / 2**m


# |v| >= 10: q > 1 digits stand before the point, the held-digit path
wide_floats = st.one_of(
    st.floats(10.0, 1e17),
    st.integers(10, 2**53).map(float),
    st.floats(10.0, 1e17).map(lambda v: -v),
)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(short_decimals(), wide_floats), min_size=1, max_size=8))
def test_write_table_matches_format_on_held_and_stripped_digits(table_bytes, values):
    written, expected = table_bytes(np.array(values).reshape(-1, 1), index=False)
    assert written == expected
    assert written.split(b"\r\n")[1:-1] == [format(v, ".17g").encode() for v in values]
