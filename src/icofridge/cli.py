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
import itertools
import json
import math
import sys
from typing import Iterable, Sequence

from . import demon, fridge, verify
from .cswap import cooling_reservoir_marginal, cooling_target_marginal, cswap_populations
# kept as cli.cswap_evolve: the benchmark tests wrap it there
from .cswap import cswap_evolve  # noqa: F401
from .thermal import excited_weight


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        raise ValueError(message)


def _int_list(text: str) -> list[int]:
    return _nonempty([int(x) for x in text.split(",") if x.strip()])


def _float_list(text: str) -> list[float]:
    return _nonempty([float(x) for x in text.split(",") if x.strip()])


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


def _csv(columns: Sequence[str], rows) -> str:
    """The column line and one line of cells per row."""
    lines = [",".join(columns)] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(columns: Sequence[str], rows: list[list], args):
    """Write ``rows`` in ``args.format`` to ``args.out``, headed by the config
    echo. A NaN or infinite cell is ``nan`` or ``inf`` in CSV and ``null`` in
    JSON, which has no such numbers."""
    config = _config(args)
    if args.format == "csv":
        text = _config_comment(config) + _csv(columns, rows)
    else:
        head = {"config": config, "columns": list(columns), "rows": []}
        text = json.dumps(head, indent=1, allow_nan=False)
        if rows:
            try:
                body = _encode_rows(rows)
            except ValueError:
                # only a table that holds a non-finite cell pays for this pass
                body = _encode_rows([[None if _non_finite(v) else v for v in row] for row in rows])
            # JSON escapes a newline inside a string, so "],\n   [" only
            # falls between two rows
            body = body[2:-2].replace("],\n   [", "\n  ],\n  [\n   ")
            text = text.removesuffix("[]\n}") + "[\n  [\n   " + body + "\n  ]\n ]\n}"
        text += "\n"
    _write(args.out, [text])


def _encode_rows(rows: list[list]) -> str:
    """``rows`` with each cell on its own line, as ``indent=1`` lays them out,
    from the C encoder: ``json.dumps`` with an indent runs the Python one."""
    return json.JSONEncoder(allow_nan=False, separators=(",\n   ", ": ")).encode(rows)


def _non_finite(v) -> bool:
    return isinstance(v, float) and not math.isfinite(v)


def _write(path: str | None, parts: Iterable[str]) -> None:
    """Write the strings ``parts`` in turn to ``path``, or to stdout when no
    path is given; a long table is passed as blocks and never held whole."""
    if path is None:
        sys.stdout.writelines(parts)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _table(columns: Sequence[str], row, axes: tuple[str, ...]):
    """A grid command: one ``row(args, *point)`` per point of the product of
    the list flags ``axes``, in their order."""

    def run(args) -> int:
        points = itertools.product(*(getattr(args, axis) for axis in axes))
        _emit(columns, [row(args, *point) for point in points], args)
        return 0

    return run


def _branches_row(args, n, d, r):
    pt = fridge.OperatingPoint.at("ico", n, d, r)
    return [n, d, r, pt.p_c, pt.p_heating, pt.e_heat - pt.a, pt.e_cool - pt.a, pt.weighted_energy]


def _cop_row(args, scheme, n, d, r):
    r_hot = r if args.r_hot is None else args.r_hot
    value = fridge.cop(n, d, r, r_hot, args.beta_r, scheme)
    return [scheme, n, d, r, r_hot, value, value / args.beta_r]


def _limits_row(args, scheme, k, r):
    return [scheme, k, r, fridge.lowest_r(scheme, r, k)]


def _cswap_row(args, n, r):
    p_c, p_h_tot, cool, heat = cswap_populations(n, r)
    t_pop = excited_weight(2, r)
    target = float(cooling_target_marginal(n, r)[1, 1].real)
    reservoir = float(cooling_reservoir_marginal(n, r)[1, 1].real)
    total = sum(cool.tolist())
    # at r = 1 no population moves and the ratio is 0/0, so the cell is NaN
    ratio = (total - (n + 1) * t_pop) / (target - t_pop) if target != t_pop else math.nan
    return [n, r, p_c, p_h_tot, target, reservoir, float(heat[0]), ratio]


def _traj_row(args, n, r):
    pt = fridge.OperatingPoint.at("traj", n, 2, r)
    return [n, r, pt.p_c, pt.p_heating, pt.weighted_energy, pt.weighted_energy / pt.entropy]


def _cmd_cycle(args) -> int:
    ens = fridge.ReservoirEnsemble.from_ratio(args.k, args.r_start, n_cold=args.n_cold)
    trace = fridge.run_cycles(
        args.scheme, ens, n=args.n, dim=args.d, seed=args.seed, max_cycles=args.max_cycles
    )
    config = _config(args, stop=trace.stop_reason, audit_defect=trace.audit_defect())
    # the trace writes its own rows: a template per row is half the cost of
    # _cell per cell, and its blocks go out as they are formatted
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
        rows = zip(edges[:-1], edges[1:], c_counts, d_counts)
        _write(args.out + ".hist.csv", [_csv(["bin_left", "bin_right", "count_boxC", "count_boxD"], rows)])
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


def _build_parser() -> _Parser:
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
    p.set_defaults(func=_table(columns, _branches_row, ("n_list", "d_list", "r_list")))

    p = sub.add_parser("cop", help="coefficient of performance over a grid")
    common(p)
    p.add_argument("--scheme", type=lambda s: s.split(","), default="ico")
    p.add_argument("--n-list", type=_int_list, default=_N_LIST)
    p.add_argument("--d-list", type=_int_list, default="2")
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    p.add_argument("--r-hot", type=float, default=None, help="default: optimal case r_hot=r")
    p.add_argument("--beta-r", type=float, default=1.0)
    columns = ["scheme", "n", "d", "r", "r_hot", "cop", "cop_over_gap_beta"]
    p.set_defaults(func=_table(columns, _cop_row, ("scheme", "n_list", "d_list", "r_list")))

    p = sub.add_parser("limits", help="lowest reachable cold ratio (closed form)")
    common(p)
    p.add_argument("--scheme", type=lambda s: s.split(","), default="ico")
    p.add_argument("--k-list", type=_float_list, default="0.5,1,5,100")
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    columns = ["scheme", "k", "r_start", "r_lowest"]
    p.set_defaults(func=_table(columns, _limits_row, ("scheme", "k_list", "r_list")))

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
    # cswap_populations stops at 16 reservoir qubits
    p.add_argument("--n-list", type=_int_list, default="2,3,4,10")
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    columns = ["n", "r", "p_c", "p_H", "target_cool_pop", "reservoir_cool_pop"]
    columns += ["target_heat_pop", "total_over_target"]
    p.set_defaults(func=_table(columns, _cswap_row, ("n_list", "r_list")))

    p = sub.add_parser("traj", help="superposed-trajectory fridge data over a grid")
    common(p)
    p.add_argument("--n-list", type=_int_list, default=_N_LIST)
    p.add_argument("--r-list", type=_float_list, default=_R_LIST)
    columns = ["n", "r", "p_c", "p_H", "weighted_dE_h", "cop_over_gap_beta"]
    p.set_defaults(func=_table(columns, _traj_row, ("n_list", "r_list")))

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
    p.add_argument("--checks", nargs="+", default=None, help="subset of check names")
    p.set_defaults(func=_cmd_verify)

    return parser


def _config_flags(args, parser: _Parser) -> list[str]:
    """The ``--config`` file's keys as ``--key=value`` flags of ``args.command``;
    a flag that takes several values (``--checks``) gets the value's words."""
    try:
        values = read_config_file(args.config)
    except OSError as exc:
        raise IOError(f"cannot read {args.config}: {exc}") from exc
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    actions = commands.choices[args.command]._actions
    # only a flag of this command, spelled out: argparse would also take a
    # prefix (r for --r-list), and a nested --config would go unread; args
    # also holds command and func, which are not flags
    dests = {a.dest for a in actions} - {"help", "config"}
    several = {a.dest for a in actions if a.nargs in ("*", "+")}
    flags = []
    for dest, value in values.items():
        if dest not in dests:
            raise ValueError(f"unknown config key {dest!r}")
        flag = f"--{dest.replace('_', '-')}"
        flags += [flag, *value.split()] if dest in several else [f"{flag}={value}"]
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
