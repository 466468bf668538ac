"""Command-line front end: sweeps, plot-ready data tables, cycle traces,
demon runs, and the oracle verification suite.

Every table embeds its full effective configuration in a ``# config:`` header
(CSV) or a ``config`` object (JSON), so any output file can be regenerated
exactly. Rows are written in grid order.

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import demon, fridge, verify
from .cswap import cooling_reservoir_marginal, cooling_target_marginal, cswap_populations
# kept as cli.cswap_evolve: the benchmark tests wrap it there
from .cswap import cswap_evolve  # noqa: F401


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value config document; '#' starts a comment."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
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


def _emit(columns: Sequence[str], rows: list[list], config: dict, fmt: str, out: str | None):
    if fmt == "csv":
        lines = ["# config: " + " ".join(f"{k}={v}" for k, v in config.items())]
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"config": config, "columns": list(columns), "rows": rows}, indent=1)
        text += "\n"
    _write(out, text)


def _write(path: str | None, text: str) -> None:
    """Write ``text`` to ``path``, or to stdout when no path is given."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def _cell(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_branches(args) -> int:
    def row(n, d, r):
        fridge._validate("ico", n, d, r)
        p_c, p_h, e0, e_cool, e_heat, _ = fridge._bath_branches("ico", n, d, r)
        p_heating = (n - 1) * p_h
        return [n, d, r, p_c, p_heating, e_heat - e0, e_cool - e0, p_heating * (e_heat - e0)]

    rows = [row(n, d, r) for n in args.n_list for d in args.d_list for r in args.r_list]
    config = _config_echo("branches", args, ("n_list", "d_list", "r_list"))
    _emit(
        ["n", "d", "r", "p_c", "p_H", "dE_h", "dE_c", "weighted_dE_h"],
        rows,
        config,
        args.format,
        args.out,
    )
    return 0


def _cmd_cop(args) -> int:
    def row(scheme, n, d, r):
        r_hot = r if args.r_hot is None else args.r_hot
        value = fridge.cop(n, d, r, r_hot, args.beta_r, scheme)
        normalized = value / args.beta_r
        return [scheme, n, d, r, r_hot, value, normalized]

    rows = [
        row(s, n, d, r)
        for s in args.scheme
        for n in args.n_list
        for d in args.d_list
        for r in args.r_list
    ]
    config = _config_echo("cop", args, ("scheme", "n_list", "d_list", "r_list", "r_hot", "beta_r"))
    _emit(
        ["scheme", "n", "d", "r", "r_hot", "cop", "cop_over_gap_beta"],
        rows,
        config,
        args.format,
        args.out,
    )
    return 0


def _cmd_limits(args) -> int:
    def row(scheme, k, r):
        return [scheme, k, r, fridge.lowest_r(scheme, r, k)]

    rows = [row(s, k, r) for s in args.scheme for k in args.k_list for r in args.r_list]
    config = _config_echo("limits", args, ("scheme", "k_list", "r_list"))
    _emit(["scheme", "k", "r_start", "r_lowest"], rows, config, args.format, args.out)
    return 0


def _cmd_cycle(args) -> int:
    scheme = args.scheme[0]
    ens = fridge.ReservoirEnsemble.from_ratio(args.k, args.r_start, n_cold=args.n_cold)
    trace = fridge.run_cycles(
        scheme, ens, n=args.n, dim=args.d, seed=args.seed, max_cycles=args.max_cycles
    )
    _write(args.out, trace.to_csv())
    return 0


def _cmd_cswap(args) -> int:
    def row(n, r):
        p_c, p_h_tot, cool, heat = cswap_populations(n, r)
        t_pop = r / (1 + r)
        target = float(cooling_target_marginal(n, r)[1, 1].real)
        reservoir = float(cooling_reservoir_marginal(n, r)[1, 1].real)
        total = sum(cool.tolist())
        ratio = (total - (n + 1) * t_pop) / (target - t_pop) if target != t_pop else 1.0
        return [n, r, p_c, p_h_tot, target, reservoir, float(heat[0]), ratio]

    rows = [row(n, r) for n in args.n_list for r in args.r_list]
    config = _config_echo("cswap", args, ("n_list", "r_list"))
    _emit(
        [
            "n",
            "r",
            "p_c",
            "p_H",
            "target_cool_pop",
            "reservoir_cool_pop",
            "target_heat_pop",
            "total_over_target",
        ],
        rows,
        config,
        args.format,
        args.out,
    )
    return 0


def _cmd_traj(args) -> int:
    def row(n, r):
        p_c, p_h = fridge.branch_probabilities(n, r, "traj")
        weighted = fridge.weighted_energy_scheme(n, 2, r, "traj")
        return [n, r, p_c, (n - 1) * p_h, weighted, fridge.cop_normalized(n, 2, r, "traj")]

    rows = [row(n, r) for n in args.n_list for r in args.r_list]
    config = _config_echo("traj", args, ("n_list", "r_list"))
    _emit(
        ["n", "r", "p_c", "p_H", "weighted_dE_h", "cop_over_gap_beta"],
        rows,
        config,
        args.format,
        args.out,
    )
    return 0


def _cmd_demon(args) -> int:
    cfg = demon.DemonConfig(
        particles=args.particles,
        n=args.n,
        r=args.r,
        dim=args.d,
        scheme=args.scheme[0],
        rounds=args.rounds,
        seed=args.seed,
    )
    report = demon.run_demon(cfg)
    _write(args.out, report.to_json() + "\n")
    if args.out is not None:
        _write(args.out + ".hist.csv", report.histogram_csv())
    return 0


def _cmd_verify(args) -> int:
    names = args.checks if args.checks else None
    results = verify.run_checks(names=names)
    failures = 0
    for res in results:
        mark = "PASS" if res.passed else "FAIL"
        print(f"{mark}  {res.name:36s} {res.seconds:7.2f}s  {res.detail}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 2


def _config_echo(command: str, args, keys: Sequence[str]) -> dict:
    config = {"command": command}
    for key in keys:
        value = getattr(args, key)
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        config[key] = value
    config["seed"] = args.seed
    config["format"] = args.format
    return config


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

_GRID_DEFAULTS = {
    "n_list": "2,3,4,10,100",
    "d_list": "2",
    "r_list": "0.1,0.3,0.5,0.7,0.9",
    "k_list": "0.5,1,5,100",
    "scheme": "ico",
}

# per-command grid defaults: cswap_populations stops at 16 reservoir qubits
_COMMAND_DEFAULTS = {"cswap": {"n_list": "2,3,4,10"}}


def _build_parser() -> _Parser:
    parser = _Parser(prog="icofridge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("branches", help="branch probabilities and energy changes over a grid")
    common(p)
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--d-list", type=_int_list, default=None)
    p.add_argument("--r-list", type=_float_list, default=None)
    p.set_defaults(func=_cmd_branches)

    p = sub.add_parser("cop", help="coefficient of performance over a grid")
    common(p)
    p.add_argument("--scheme", type=lambda s: s.split(","), default=None)
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--d-list", type=_int_list, default=None)
    p.add_argument("--r-list", type=_float_list, default=None)
    p.add_argument("--r-hot", type=float, default=None, help="default: optimal case r_hot=r")
    p.add_argument("--beta-r", type=float, default=1.0)
    p.set_defaults(func=_cmd_cop)

    p = sub.add_parser("limits", help="lowest reachable cold ratio (closed form)")
    common(p)
    p.add_argument("--scheme", type=lambda s: s.split(","), default=None)
    p.add_argument("--k-list", type=_float_list, default=None)
    p.add_argument("--r-list", type=_float_list, default=None)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("cycle", help="finite-reservoir refrigeration trace")
    common(p)
    p.add_argument("--scheme", type=lambda s: s.split(","), default=None)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--r-start", type=float, default=0.5)
    p.add_argument("--n-cold", type=float, default=16.0)
    p.add_argument("--max-cycles", type=int, default=200_000)
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("cswap", help="controlled-SWAP branch marginals over a grid")
    common(p)
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--r-list", type=_float_list, default=None)
    p.set_defaults(func=_cmd_cswap)

    p = sub.add_parser("traj", help="superposed-trajectory fridge data over a grid")
    common(p)
    p.add_argument("--n-list", type=_int_list, default=None)
    p.add_argument("--r-list", type=_float_list, default=None)
    p.set_defaults(func=_cmd_traj)

    p = sub.add_parser("demon", help="Maxwell-demon sorting experiment")
    common(p)
    p.add_argument("--scheme", type=lambda s: s.split(","), default=None)
    p.add_argument("--particles", type=int, default=10_000)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--r", type=float, default=0.1)
    p.add_argument("--rounds", type=int, default=1)
    p.set_defaults(func=_cmd_demon)

    p = sub.add_parser("verify", help="run the named oracle suite")
    common(p)
    p.add_argument("--checks", nargs="*", default=None, help="subset of check names")
    p.set_defaults(func=_cmd_verify)

    return parser


_CONFIG_PARSERS = {
    "n_list": _int_list,
    "d_list": _int_list,
    "r_list": _float_list,
    "k_list": _float_list,
    "scheme": lambda s: s.split(","),
    "seed": int,
    "particles": int,
    "n": int,
    "d": int,
    "rounds": int,
    "max_cycles": int,
    "k": float,
    "r": float,
    "r_start": float,
    "r_hot": float,
    "beta_r": float,
    "n_cold": float,
    "format": str,
    "out": str,
}


def _apply_config(args) -> None:
    """Fill unset flags from the config file, then fall back to defaults."""
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            file_values = read_config_file(args.config)
        except OSError as exc:
            raise IOError(f"cannot read {args.config}: {exc}") from exc
    for key, value in file_values.items():
        attr = key.replace("-", "_")
        if attr not in _CONFIG_PARSERS:
            raise UsageError(f"unknown config key {key!r}")
        if getattr(args, attr, None) is None:
            setattr(args, attr, _CONFIG_PARSERS[attr](value))
    defaults = {**_GRID_DEFAULTS, **_COMMAND_DEFAULTS.get(args.command, {})}
    for attr, default in defaults.items():
        if getattr(args, attr, "missing") is None:
            setattr(args, attr, _CONFIG_PARSERS[attr](default))


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except IOError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
