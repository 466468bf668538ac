"""Command-line front end: sweeps, plot-ready data tables, cycle traces,
demon runs, and the oracle verification suite.

This is the one module that knows the output format. Every CSV or JSON
output embeds its full effective configuration in a ``# config:`` header
(CSV) or a ``config`` object (JSON): ``command``, every flag the command
declares in its order, then ``format``, so passing the echoed flags back
regenerates the file exactly. Only ``cycle`` and ``demon`` draw random
numbers, so only they take ``--seed``.
``cycle``'s echo ends with its results, ``stop`` and ``audit_defect``. Rows
are written in grid order; ``demon`` writes its summary as one row.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import demon, fridge, verify
from .cswap import cswap_populations
# kept as cli.cswap_evolve: the benchmark tests wrap it there
from .cswap import cswap_evolve  # noqa: F401
from .thermal import excited_weight

# rows formatted and written per string: a trace block's text and Python
# numbers peak near 650 kB, a quarter of a 4,096-row block's, at the same speed
_CSV_BLOCK = 1024


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        raise ValueError(message)


def _int_list(text: str) -> list[int]:
    return _nonempty([int(x) for x in text.split(",") if x.strip()])


def _float_list(text: str) -> list[float]:
    return _nonempty([float(x) for x in text.split(",") if x.strip()])


def _str_list(text: str) -> list[str]:
    return _nonempty([x.strip() for x in text.split(",") if x.strip()])


def _nonempty(values: list) -> list:
    """A list flag's values; an empty one is a usage error, not an empty grid."""
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value config document; '#' starts a comment.

    Keys are returned as flag names, '-' read as '_' (``n-list`` is
    ``n_list``); a key may appear once in either spelling.
    """
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key in values:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
            values[key] = value.strip()
    return values


def parse_config_comment(line: str) -> dict[str, str]:
    """Invert the '# config: cmd=... k=v ...' header of an emitted CSV."""
    if not line.startswith("# config:"):
        raise ValueError("not a config header line")
    values: dict[str, str] = {}
    for token in line[len("# config:") :].split():
        key, _, value = token.partition("=")
        values[key] = value
    return values


def _config(args, **results) -> dict:
    """The config echo: ``command``, every flag in ``args`` in declared order
    (a list comma-joined), then ``format`` and the run's ``results``."""
    config = {"command": args.command}
    for key, value in vars(args).items():
        if key not in ("command", "config", "out", "format", "func"):
            config[key] = ",".join(str(v) for v in value) if isinstance(value, list) else value
    config.update(format=args.format, **results)
    return config


def _config_comment(config: dict) -> str:
    """The ``# config:`` header line of a CSV table; ``parse_config_comment`` inverts it."""
    return "# config: " + " ".join(f"{k}={v}" for k, v in config.items()) + "\n"


def _cell(fmt: str):
    """How ``fmt`` writes one cell that is not in a float column: a float as
    ``%.12g`` (CSV) or its repr (JSON, ``null`` when not finite), any other
    cell as ``str`` (CSV) or through ``json.dumps``."""
    if fmt == "csv":
        return lambda v: "%.12g" % v if isinstance(v, float) else str(v)
    return lambda v: "null" if isinstance(v, float) and not math.isfinite(v) else json.dumps(v)


def _text(columns: Sequence[str], cells: list, rows: int, fmt: str, config: dict | None = None) -> Iterator[str]:
    """A table of ``rows`` rows in ``fmt`` as strings of at most
    ``_CSV_BLOCK`` rows each, after its head: in CSV the ``# config:``
    line (when ``config`` is given) and the column line, in JSON the layout of
    ``json.dumps(table, indent=1)``, one cell per line. ``cells`` holds each
    column: a numeric array, whose cells each block formats with one ``%``
    template (``%d`` for integers; for floats ``%.12g`` in CSV, ``%r`` in
    JSON, where a cell that is not finite is ``null``), or an iterable of
    the cells as written (``%s``). The head is built before the first string
    is taken."""
    if fmt == "csv":
        head = ("" if config is None else _config_comment(config)) + ",".join(columns) + "\n"
        number, open_row, comma, close_row, between, tail = "%.12g", "", ",", "\n", "", ""
    else:
        head = json.dumps({"config": config, "columns": list(columns), "rows": []}, indent=1, allow_nan=False)
        if not rows:
            return iter([head + "\n"])
        head = head.removesuffix("[]\n}") + "[\n"
        number, open_row, comma, close_row, between, tail = "%r", "  [\n   ", ",\n   ", "\n  ]", ",\n", "\n ]\n}\n"

    def blocks():
        size = _CSV_BLOCK
        sources = [column if isinstance(column, np.ndarray) else iter(column) for column in cells]
        for start in range(0, rows, size):
            slots, parts = [], []
            for column in sources:
                if not isinstance(column, np.ndarray):
                    slots.append("%s")
                    parts.append(itertools.islice(column, size))
                    continue
                values = column[start : start + size]
                if fmt == "json" and not np.isfinite(values).all():
                    slots.append("%s")
                    finite = np.isfinite(values).tolist()
                    parts.append([repr(v) if ok else "null" for v, ok in zip(values.tolist(), finite)])
                else:
                    slots.append("%d" if values.dtype.kind in "iu" else number)
                    parts.append(values.tolist())
            template = open_row + comma.join(slots) + close_row
            yield (between if start else "") + between.join([template % row for row in zip(*parts)])

    return itertools.chain([head], blocks(), [tail])


def _emit(columns: Sequence[str], rows: list[list], args):
    """Write ``rows``, a short table of any cells, in ``args.format`` to
    ``args.out``, headed by the config echo; each cell is written as ``_cell``
    says."""
    cell = _cell(args.format)
    cells = [[cell(v) for v in column] for column in zip(*rows)]
    _write(args.out, _text(columns, cells, len(rows), args.format, _config(args)))


def _write(path: str | None, parts: Iterable[str]) -> None:
    """Write the strings ``parts`` in turn to ``path``, or to stdout when no
    path is given; a long table is passed as blocks and never held whole.

    When the reader of stdout has gone, the ``BrokenPipeError`` is raised
    once: stdout is pointed at the null device first, so the flush at exit
    does not fail again."""
    if path is None:
        try:
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        except BrokenPipeError:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _table(columns: Sequence[str], block, axes: tuple[str, ...], per_block: tuple[str, ...] = ()):
    """A grid command over the list flags ``axes``: one row per point of
    their product, in that order. ``block(args, *point, *lists)`` evaluates
    one block: ``point`` holds one value of each axis in ``per_block`` and
    ``lists`` the other axes' lists whole, N (or k) and then r; it returns
    the table's value columns, each broadcasting to len(N) x len(r), which
    fill one float array in grid order.

    On a fault in any block the grid is run again one slice at a time (the
    last axis whole at each point of the others) in grid order, through the
    same ``block``, so the fault reported is the first slice's. Only then is
    the output opened: the key columns repeat each axis value formatted once,
    and ``_text`` formats the value array one block of rows at a time.
    """
    whole = tuple(axis for axis in axes if axis not in per_block)

    def run(args) -> int:
        grid = {axis: getattr(args, axis) for axis in axes}
        lists = [grid[axis] for axis in whole]
        # the value columns over (column, *axes), in grid order, filled one
        # block at a time through a view ordered (column, *per_block, *whole)
        cells = np.empty((len(columns) - len(axes), *(len(values) for values in grid.values())))
        held = cells.transpose([0, *(1 + axes.index(a) for a in (*per_block, *whole))])
        try:
            for point in itertools.product(*(range(len(grid[a])) for a in per_block)):
                values = block(args, *(grid[a][i] for a, i in zip(per_block, point)), *lists)
                for column, value in zip(held[(slice(None), *point)], values, strict=True):
                    column[...] = value
        except ValueError:
            *outer, last = axes
            for point in itertools.product(*(grid[a] for a in outer)):
                one = dict(zip(outer, point))
                block(args, *(one[a] for a in per_block), *([one[a]] for a in whole[:-1]), grid[last])
            raise
        cell = _cell(args.format)
        sizes = [len(values) for values in grid.values()]
        keys = [
            _repeated([cell(v) for v in values], math.prod(sizes[i + 1 :]), math.prod(sizes[:i]))
            for i, values in enumerate(grid.values())
        ]
        values = cells.reshape(len(cells), -1)
        _write(args.out, _text(columns, [*keys, *values], values.shape[1], args.format, _config(args)))
        return 0

    return run


def _repeated(values, inner: int, outer: int):
    """An axis's key column in grid order, as an iterator: each value
    ``inner`` times (once per point of the later axes), that run ``outer``
    times (once per point of the earlier ones)."""
    return itertools.chain.from_iterable(itertools.repeat(v, inner) for _ in range(outer) for v in values)


def _branches_block(args, d, ns, rs):
    p = fridge.OperatingPoint.at("ico", ns, d, rs)
    return p.p_c, p.p_heating, p.e_heat - p.a, p.e_cool - p.a, p.weighted_energy


def _cop_block(args, scheme, d, ns, rs):
    r_hot = rs if args.r_hot is None else args.r_hot
    values = fridge.cop(ns, d, rs, r_hot, args.beta_r, scheme)
    return r_hot, values, values / args.beta_r


def _limits_block(args, scheme, ks, rs):
    return (fridge.lowest_r(scheme, np.array(rs), np.array(ks)[:, None]),)


def _cswap_block(args, ns, rs):
    fridge._validate("cswap", ns, 2, rs)
    r = np.array(rs)
    t_pop = excited_weight(2, r)
    _, _, target, _, reservoir = fridge._kernel("cswap", ns, 2)(r, t_pop)
    p_c, p_h, cool, heat = zip(*(cswap_populations(n, r) for n in ns))
    excess = [pops.sum(axis=-1) - (n + 1) * t_pop for n, pops in zip(ns, cool)]
    shift = target - t_pop
    # at r = 1 no population moves and the ratio is 0/0, so the cell is NaN
    ratio = np.divide(excess, shift, out=np.full_like(shift, math.nan), where=shift != 0)
    return p_c, p_h, target, reservoir, [pops[:, 0] for pops in heat], ratio


def _traj_block(args, ns, rs):
    p = fridge.OperatingPoint.at("traj", ns, 2, rs)
    return p.p_c, p.p_heating, p.weighted_energy, p.weighted_energy / p.entropy


def _cmd_cycle(args) -> int:
    ens = fridge.ReservoirEnsemble.from_ratio(args.k, args.r_start, n_cold=args.n_cold)
    trace = fridge.run_cycles(
        args.scheme, ens, n=args.n, dim=args.d, seed=args.seed, max_cycles=args.max_cycles
    )
    config = _config(args, stop=trace.stop_reason, audit_defect=trace.audit_defect())
    # the trace's rows come from _text in blocks, which go out as they are formatted
    _write(args.out, itertools.chain([_config_comment(config)], trace.to_csv()))
    return 0


def _cmd_demon(args) -> int:
    cfg = demon.DemonConfig(
        particles=args.particles,
        n=args.n,
        r=args.r,
        dim=args.d,
        scheme=args.scheme,
        rounds=args.rounds,
        seed=args.seed,
    )
    report = demon.run_demon(cfg)
    columns = ["cooled_count", "heated_count", "initial_total_energy"]
    columns += ["box_c_energy", "box_d_energy", "transferred_fraction"]
    row = [getattr(report, column) for column in columns]
    _emit(columns, [row], args)
    if args.out is not None:
        edges, c_counts, d_counts = report.histogram()
        bins = ["bin_left", "bin_right", "count_boxC", "count_boxD"]
        cells = [edges[:-1], edges[1:], c_counts.tolist(), d_counts.tolist()]
        _write(args.out + ".hist.csv", _text(bins, cells, len(c_counts), "csv"))
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_checks(names=args.checks)
    failures = sum(not res.passed for res in results)
    if args.format == "text":
        lines = [
            f"{'PASS' if res.passed else 'FAIL'}  {res.name:36s} {res.seconds:7.2f}s  {res.detail}"
            for res in results
        ]
        # the summed check time, excluding import and start-up
        seconds = sum(res.seconds for res in results)
        lines.append(f"{len(results) - failures}/{len(results)} checks passed in {seconds:.2f} s")
        _write(args.out, ["\n".join(lines) + "\n"])
    else:
        rows = [[r.name, r.passed, r.defect, r.tol, r.seconds, r.detail] for r in results]
        _emit(["name", "passed", "defect", "tol", "seconds", "detail"], rows, args)
    return 0 if failures == 0 else 2


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

# the default grids every sweep command shares
_N_LIST = "2,3,4,10,100"
_R_LIST = "0.1,0.3,0.5,0.7,0.9"


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="icofridge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("csv", "json")):
        """The flags every command takes; ``formats`` lists what it writes, default first."""
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=formats, default=formats[0])

    p = sub.add_parser("branches", help="branch probabilities and energy changes over a grid")
    common(p)
    p.add_argument("--n-list", type=_int_list, default=_N_LIST)
    p.add_argument("--d-list", type=_int_list, default="2")
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    columns = ["n", "d", "r", "p_c", "p_H", "dE_h", "dE_c", "weighted_dE_h"]
    p.set_defaults(func=_table(columns, _branches_block, ("n_list", "d_list", "r_list"), ("d_list",)))

    p = sub.add_parser("cop", help="coefficient of performance over a grid")
    common(p)
    p.add_argument("--scheme", type=lambda s: s.split(","), default="ico")
    p.add_argument("--n-list", type=_int_list, default=_N_LIST)
    p.add_argument("--d-list", type=_int_list, default="2")
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    p.add_argument("--r-hot", type=float, default=None, help="default: optimal case r_hot=r")
    p.add_argument("--beta-r", type=float, default=1.0)
    columns = ["scheme", "n", "d", "r", "r_hot", "cop", "cop_over_gap_beta"]
    p.set_defaults(func=_table(columns, _cop_block, ("scheme", "n_list", "d_list", "r_list"), ("scheme", "d_list")))

    p = sub.add_parser("limits", help="lowest reachable cold ratio (closed form)")
    common(p)
    p.add_argument("--scheme", type=lambda s: s.split(","), default="ico")
    p.add_argument("--k-list", type=_float_list, default="0.5,1,5,100")
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    columns = ["scheme", "k", "r_start", "r_lowest"]
    p.set_defaults(func=_table(columns, _limits_block, ("scheme", "k_list", "r_list"), ("scheme",)))

    p = sub.add_parser("cycle", help="finite-reservoir refrigeration trace")
    common(p, ("csv",))
    p.add_argument("--scheme", default="ico")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--r-start", type=float, default=0.5)
    p.add_argument("--n-cold", type=float, default=16.0)
    p.add_argument("--max-cycles", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("cswap", help="controlled-SWAP branch marginals over a grid")
    common(p)
    p.add_argument("--n-list", type=_int_list, default="2,3,4,10")
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    columns = ["n", "r", "p_c", "p_H", "target_cool_pop", "reservoir_cool_pop"]
    columns += ["target_heat_pop", "total_over_target"]
    p.set_defaults(func=_table(columns, _cswap_block, ("n_list", "r_list")))

    p = sub.add_parser("traj", help="superposed-trajectory fridge data over a grid")
    common(p)
    p.add_argument("--n-list", type=_int_list, default=_N_LIST)
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    columns = ["n", "r", "p_c", "p_H", "weighted_dE_h", "cop_over_gap_beta"]
    p.set_defaults(func=_table(columns, _traj_block, ("n_list", "r_list")))

    p = sub.add_parser("demon", help="Maxwell-demon sorting experiment")
    common(p, ("json",))
    p.add_argument("--scheme", default="ico")
    p.add_argument("--particles", type=int, default=10_000)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_demon)

    p = sub.add_parser("verify", help="run the named oracle suite")
    common(p, ("text", "json"))
    p.add_argument("--checks", type=_str_list, default=None, help="comma-separated subset of check names")
    p.set_defaults(func=_cmd_verify)

    return parser


def _config_flags(args, parser: _Parser) -> list[str]:
    """The ``--config`` file's keys as ``--key=value`` flags of ``args.command``."""
    try:
        values = read_config_file(args.config)
    except OSError as exc:
        raise IOError(f"cannot read {args.config}: {exc}") from exc
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    # only a flag of this command, spelled out: argparse would also take a
    # prefix (r for --r-list), and a nested --config would go unread; args
    # also holds command and func, which are not flags
    dests = {a.dest for a in commands.choices[args.command]._actions} - {"help", "config"}
    flags = []
    for dest, value in values.items():
        if dest not in dests:
            raise ValueError(f"unknown config key {dest!r}")
        flags.append(f"--{dest.replace('_', '-')}={value}")
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # the file's flags go right after the command name, so the
            # command line's own flags come later and win
            head = argv.index(args.command) + 1
            args = parser.parse_args(argv[:head] + _config_flags(args, parser) + argv[head:])
        return args.func(args)
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
