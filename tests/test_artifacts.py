"""The one CSV writer: cell formats by column kind, chunking, and read-back."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from tcbayes.artifacts import CHUNK_ROWS, write_csv
from tcbayes.cli import load_chain_csv
from tcbayes.samplers import MarkovChain, ParticleHistory
from tcbayes.scenario import ConfigError


def test_each_column_kind_has_its_cell_format(tmp_path):
    flags = np.array([True, False, True])
    columns = (
        np.array([0, -7, 2**40]),
        flags,
        flags.view(np.uint8),
        np.array([-0.0, np.inf, 1e-300]),
        ["a", "bc", ""],
    )
    path = tmp_path / "kinds.csv"
    write_csv(str(path), ("i", "b", "u8", "f", "s"), columns)
    assert path.read_bytes() == (
        b"i,b,u8,f,s\n"
        b"0,1,1,-0.0,a\n"
        b"-7,0,0,inf,bc\n"
        b"1099511627776,1,1,1e-300,\n"
    )
    written = path.read_bytes()
    # an object column, e.g. a None cell, has no cell format: the error comes
    # before the file is opened, so the file written before stays as it was
    with pytest.raises(TypeError, match="no CSV cell format"):
        write_csv(str(path), ("f", "o"), (np.zeros(3), [0.1, None, np.int64(4)]))
    assert path.read_bytes() == written


@pytest.mark.parametrize(
    "n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 4 * CHUNK_ROWS - 1, 4 * CHUNK_ROWS, 4 * CHUNK_ROWS + 1]
)
def test_rows_around_the_chunk_size(tmp_path, n):
    rng = np.random.default_rng(n)
    values = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n)
    path = tmp_path / "rows.csv"
    write_csv(str(path), ("k", "v"), (np.arange(n), values))
    expected = "k,v\n" + "".join(f"{k},{float(v)!r}\n" for k, v in enumerate(values))
    assert path.read_text() == expected


def test_runs_of_repeated_floats_keep_every_cell(tmp_path):
    # runs of one value, -0.0 next to 0.0 (equal values, different bits and
    # cells), NaN, infinities, and a run across the chunk boundary
    head = [1.5, 1.5, -0.0, 0.0, 0.0, -0.0, np.nan, np.nan, np.inf, np.inf, -np.inf, 2.0]
    values = np.array(head + [0.1] * (CHUNK_ROWS - len(head) - 3) + [np.pi] * 7 + [5e-324, -0.0])
    assert values[CHUNK_ROWS - 3 : CHUNK_ROWS + 4].tolist() == [np.pi] * 7
    path = tmp_path / "runs.csv"
    write_csv(str(path), ("v", "w"), (values, values[::-1].copy()))
    expected = "v,w\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(values.tolist(), values[::-1].tolist()))
    assert path.read_text() == expected


def test_header_only_and_shape_checks(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ("a", "b"), (np.zeros(0), np.zeros(0, dtype=int)))
    assert path.read_text() == "a,b\n"
    with pytest.raises(ValueError, match="one header name"):
        write_csv(str(path), ("a",), (np.zeros(2), np.zeros(2)))
    with pytest.raises(ValueError, match="equal length"):
        write_csv(str(path), ("a", "b"), (np.zeros(2), np.zeros(3)))


def test_chain_file_reads_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(3)
    n = CHUNK_ROWS + 17
    log_post = rng.normal(-3.0, 2.0, n)
    log_post[::5] = -np.inf
    chain = MarkovChain(
        rng.normal(600.0, 80.0, n) * 10.0 ** rng.integers(-12, 12, n),
        rng.random(n) < 0.4,
        rng.random(n) < 0.9,
        log_post,
        np.cumsum(rng.random(n)) * 1e-5,
    )
    path = str(tmp_path / "chain.csv")
    chain.to_csv(path)
    back = load_chain_csv(path)
    assert isinstance(back, MarkovChain)
    for name in ("samples", "accepted", "feasible", "log_post", "cumulative_seconds"):
        original, loaded = getattr(chain, name), getattr(back, name)
        assert loaded.dtype == original.dtype
        assert loaded.tobytes() == original.tobytes(), name


def test_particle_file_reads_back_bit_for_bit(tmp_path):
    rng = np.random.default_rng(4)
    generations = rng.normal(0.0, 1e3, (90, 50)) * 10.0 ** rng.integers(-9, 9, (90, 50))
    history = ParticleHistory(generations, np.cumsum(rng.random(89)) * 1e-3)
    path = str(tmp_path / "particles.csv")
    history.to_csv(path)
    back = load_chain_csv(path)
    assert isinstance(back, ParticleHistory)
    for name in ("generations", "cumulative_seconds"):
        assert getattr(back, name).tobytes() == getattr(history, name).tobytes(), name


def _break_cell(path: str, line: int, column: int, cell: str) -> None:
    lines = open(path).read().splitlines()
    cells = lines[line].split(",")
    cells[column] = cell
    lines[line] = ",".join(cells)
    open(path, "w").write("\n".join(lines) + "\n")


@pytest.mark.parametrize("cell", ["", "abc"])
@pytest.mark.parametrize("kind", ["chain", "particles"])
def test_cell_that_is_not_a_number_names_the_file(tmp_path, kind, cell):
    rng = np.random.default_rng(5)
    if kind == "chain":
        flags = np.ones(6, bool)
        run = MarkovChain(rng.normal(size=6), flags, flags, np.zeros(6), np.arange(6.0))
    else:
        run = ParticleHistory(rng.normal(size=(4, 3)), [0.1, 0.2, 0.3])
    path = str(tmp_path / f"{kind}.csv")
    run.to_csv(path)
    _break_cell(path, 5, -1, cell)  # a time cell after the initial ensemble
    with pytest.raises(ConfigError, match=f"{kind}.csv"):
        load_chain_csv(path)


# A frozen copy of the writer the one-list-per-column-slice writer replaced:
# two float paths (one repr per run of bit-identical cells, spread by
# itertools.repeat, or one repr per cell where runs exceed 3/4 of the cells),
# a formatter closure per column kind, and 4096-row chunks.
def _frozen_float_cells(values):
    bits = values.view(f"i{values.itemsize}")
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 4 * starts.size > 3 * values.size:
        return map(repr, values.tolist())
    counts = np.diff(np.append(starts, values.size)).tolist()
    cells = map(repr, values[starts].tolist())
    return itertools.chain.from_iterable(map(itertools.repeat, cells, counts))


def _frozen_formatter(column):
    kind = column.dtype.kind
    if kind in "iu":
        return lambda values: map(str, values.tolist())
    if kind == "b":
        return lambda values: map(("0", "1").__getitem__, values.tolist())
    if kind == "f":
        return _frozen_float_cells
    if kind == "U":
        return lambda values: values.tolist()
    raise TypeError(f"no CSV cell format for dtype {column.dtype}")


def _frozen_write_csv(path, header, columns):
    columns = [np.asarray(c) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    formats = [_frozen_formatter(c) for c in columns]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, 4096):
            cells = [fmt(c[start : start + 4096]) for c, fmt in zip(columns, formats)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _crw_like_columns(rng, n):
    """A chain's columns whose rejected steps (about 40 %) repeat theta and
    log_post, and whose time column has no two equal cells."""
    accepted = rng.random(n) < 0.6
    accepted[0] = True
    moves = np.flatnonzero(accepted)
    last = np.maximum.accumulate(np.where(accepted, np.arange(n), 0))
    theta = np.zeros(n)
    theta[moves] = 600.0 + np.cumsum(rng.normal(0.0, 30.0, moves.size))
    log_post = np.zeros(n)
    log_post[moves] = rng.normal(-3.0, 2.0, moves.size)
    return (
        np.arange(n), theta[last], accepted, rng.random(n) < 0.9, log_post[last],
        np.cumsum(rng.random(n)) * 1e-5,
    )


def _special_floats(rng, n):
    specials = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.0])
    return specials[np.repeat(rng.integers(0, specials.size, n), rng.integers(1, 4, n))[:n]]


@pytest.mark.parametrize("n", [1023, 1024, 1025, 4095, 4096, 4097, 25_000])
def test_writer_writes_the_frozen_writers_bytes(tmp_path, n):
    rng = np.random.default_rng(n)
    chain = _crw_like_columns(rng, n)
    assert 0.3 < 1.0 - chain[2].mean() < 0.5
    words = np.array(["crw", "chmc", "csvgd", ""])
    others = (
        _special_floats(rng, n),
        rng.normal(0.0, 1e3, n).astype(np.float32),
        np.repeat(rng.normal(size=n).astype(np.float32), 2)[:n],
        rng.integers(-(2**62), 2**62, n, dtype=np.int64),
        rng.integers(0, 256, n).astype(np.uint8),
        rng.random(n) < 0.5,
        words[rng.integers(0, words.size, n)],
    )
    columns = chain + others
    header = tuple(f"c{i}" for i in range(len(columns)))
    ours, frozen = tmp_path / "ours.csv", tmp_path / "frozen.csv"
    write_csv(str(ours), header, columns)
    _frozen_write_csv(str(frozen), header, columns)
    # line lists, so a failure names its first differing row without a long diff
    assert ours.read_bytes().split(b"\n") == frozen.read_bytes().split(b"\n")
