"""Command-line driver: reproducible experiment runs and table emission.

Subcommands
-----------
``run``          protocol runs: exact or sampled code-based fingerprinting,
                 or the small-alphabet phase protocol
``classical``    exhaustive SMP strategy search, lower-bound calculators,
                 break-even input length
``feasibility``  pulse-train slot counts, photon statistics, noisy Monte
                 Carlo error rates and dark-count sweeps
``codes``        export / import (show) / verify code files

Every option may also be given in a plain-text config file (one section
per subcommand, ``key = value``); explicit flags win over the file.
Unknown keys are rejected.  All randomness flows from one master seed
which is printed in every report.  Exit codes: 0 success, 1 usage or
domain error, 2 resource limit.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import classical, ecc, physical, protocol, reports
from .errors import (ConfigError, DomainError, QfpError, ResourceLimitError,
                     check)


class _UsageError(QfpError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; we reserve 2
        raise _UsageError(f"{self.prog}: {message}")


# --- value parsers ----------------------------------------------------------

_LENGTH_UNITS = {"": 1.0, "m": 1.0, "km": 1e3}
_TIME_UNITS = {"": 1.0, "s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9,
               "ps": 1e-12}
_UNIT_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*([a-z]*)\s*$")


def _with_units(units, what):
    def parse(text: str) -> float:
        match = _UNIT_RE.match(text)
        if not match or match.group(2) not in units:
            raise ValueError(
                f"cannot parse {what} {text!r} "
                f"(units: {', '.join(u for u in units if u)})"
            )
        return float(match.group(1)) * units[match.group(2)]

    return parse


parse_length = _with_units(_LENGTH_UNITS, "length")
parse_time = _with_units(_TIME_UNITS, "time")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean {text!r}")


def _float_list(text: str) -> list[float]:
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no numbers in {text!r}")
    return values


# --- config-file keys: each subcommand's option dests ----------------------

def _subparser(parser: argparse.ArgumentParser,
               command: str) -> argparse.ArgumentParser:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices[command]


def _config_types(parser: argparse.ArgumentParser, command: str) -> dict:
    """Config key -> converter for one subcommand, read off its options.

    A key is an option's dest and converts as the option's value does; a
    flag converts with ``_parse_bool``.
    """
    return {a.dest: (_parse_bool if isinstance(a, argparse._StoreTrueAction)
                     else a.type or str)
            for a in _subparser(parser, command)._actions
            if a.dest not in ("help", "config")}


def _load_config_section(path: str, section: str, types: dict) -> dict:
    import configparser  # only a run with --config needs it

    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r} is not UTF-8: {exc}") from exc
    if not parser.has_section(section):
        return {}
    merged = {}
    for key, raw in parser.items(section):
        name = key.replace("-", "_")
        if name not in types:
            raise ConfigError(
                f"config {path!r} section [{section}]: unknown key {key!r}"
            )
        try:
            merged[name] = types[name](raw)
        except ValueError as exc:
            raise ConfigError(
                f"config {path!r} section [{section}], key {key!r}: {exc}"
            ) from exc
    return merged


def _require(args, names) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise _UsageError(
            f"missing required option(s): "
            + ", ".join("--" + n.replace("_", "-") for n in missing)
        )


# --- run --------------------------------------------------------------------

def _build_code(args) -> ecc.Code:
    if args.code_file is not None:
        return ecc.load_code(args.code_file)
    _require(args, ["code"])
    kind = args.code.strip().lower()
    if kind in ("identity", "repetition", "hadamard"):
        _require(args, ["n"])
    if kind == "identity":
        return ecc.identity_code(args.n)
    if kind == "repetition":
        _require(args, ["r"])
        return ecc.repetition_code(args.n, args.r)
    if kind == "hadamard":
        return ecc.hadamard_code(args.n)
    if kind in ("random", "randomlinear", "random-linear"):
        _require(args, ["n", "m"])
        return ecc.random_linear_code(args.n, args.m, args.code_seed)
    raise DomainError(f"unknown code kind {args.code!r}")


def _reject_out(args) -> None:
    """--out is a usage error for a mode without a table; checked before
    the mode computes or prints anything."""
    if args.out:
        raise _UsageError(f"qfp {args.command}: --out needs a mode with a "
                          f"table; this mode writes only --json")


def _emit(args, payload) -> None:
    """Write the payload's "rows" to --out and ``payload`` to --json."""
    paths = [path for path in (args.out, args.json) if path]
    if paths:
        reports.write(paths, reports.chunks(
            payload, bool(args.out), bool(args.json)))
    for path in paths:
        print(f"wrote {path}")


def cmd_run(args) -> int:
    if args.phase_protocol:
        _require(args, ["q"])
        if not args.all_pairs:
            _require(args, ["phase_x", "phase_y"])
        q = args.q
        table, avg = protocol.phase_protocol_table(q)
        pairs = range(q * q)
        if not args.all_pairs:
            protocol.check_symbol(q, args.phase_x, "x")
            protocol.check_symbol(q, args.phase_y, "y")
            pairs = [args.phase_x * q + args.phase_y]
        print(f"phase protocol q={q}: average referee error = {avg!r}")
        _emit(args, {"command": "run", "mode": "phase_protocol", "q": q,
                     "avg_error": avg,
                     "rows": protocol.phase_rows(q, table, avg, pairs)})
        return 0

    code = _build_code(args)
    _require(args, ["x", "y"])
    if args.exact:
        row = protocol.exact_report_row(code, args.x, args.y)
        print(f"exact: pN = {row['pN_exact']!r} verdict = {row['verdict']}")
        _emit(args, {"command": "run", "mode": "exact", "rows": [row]})
        return 0

    if args.out or args.json:
        check("report rows", args.trials)
    if args.k is not None:
        params = protocol.ProtocolParams(code.n, code, args.k, args.epsilon)
    else:
        params = protocol.ProtocolParams.for_error_target(code, args.epsilon)
    batch = protocol.run_batch(params, args.x, args.y, args.seed,
                               args.trials)
    print(f"master_seed = {batch.master_seed}")
    print(f"sampled {batch.trials} trials, k = {params.k}: "
          f"NotEqual fraction = {batch.not_equal_fraction!r} "
          f"(exact pN = {batch.pn_exact!r})")
    _emit(args, {"command": "run", "mode": "sampled",
                 "master_seed": batch.master_seed, "k": params.k,
                 "trials": batch.trials,
                 "not_equal_fraction": batch.not_equal_fraction,
                 "rows": protocol.batch_rows(params, args.x, args.y, batch)})
    return 0


# --- classical ---------------------------------------------------------------

def cmd_classical(args) -> int:
    # --bounds adds the quantum side only when --epsilon or --mu is given
    quantum_side = args.epsilon is not None or args.mu is not None
    args.epsilon = 0.01 if args.epsilon is None else args.epsilon
    args.mu = 2.0 if args.mu is None else args.mu
    if args.bounds:
        _require(args, ["n"])
        if quantum_side:
            report = classical.full_bound_report(args.n, args.epsilon,
                                                 args.mu)
        else:
            report = classical.smp_equality_lower_bounds(args.n)
        row = report._asdict()
        print(f"n = {report.n}: ab_lower = {report.ab_lower!r}, "
              f"max_lower = {report.max_lower!r}, "
              f"shared_bit_lower = {report.shared_bit_lower!r}")
        if report.quantum_cost_per_party is not None:
            print(f"quantum cost per party = "
                  f"{report.quantum_cost_per_party!r}, "
                  f"breakeven = {report.breakeven}")
        _emit(args, {"command": "classical", "mode": "bounds", "rows": [row]})
        return 0

    if args.breakeven:
        _reject_out(args)
        protocol.check_target_error(args.epsilon)
        nu = ecc.justesen_nu(args.mu)
        k = protocol.repetitions_needed(nu, args.epsilon)
        n_star = classical.breakeven_for_k(k)
        lhs, rhs = classical.breakeven_sides(n_star, k)
        lhs_h, rhs_h = classical.breakeven_sides(max(1, n_star // 2), k)
        print(f"break-even n* = {n_star} (epsilon = {args.epsilon}, "
              f"mu = {args.mu}, nu = {nu!r}, k = {k})")
        print(f"at n*:   quantum k(1+log2 n) = {lhs!r} <= sqrt(n)/40 = "
              f"{rhs!r}")
        print(f"at n*/2: quantum k(1+log2 n) = {lhs_h!r} >  sqrt(n)/40 = "
              f"{rhs_h!r}")
        payload = {"command": "classical", "mode": "breakeven",
                   "epsilon": args.epsilon, "mu": args.mu, "nu": nu, "k": k,
                   "n_star": n_star, "quantum_at_n_star": lhs,
                   "classical_at_n_star": rhs,
                   "quantum_at_half": lhs_h, "classical_at_half": rhs_h}
        _emit(args, payload)
        return 0

    _require(args, ["q", "alice", "bob"])
    result = classical.brute_force_smp(args.q, args.alice, args.bob)
    row = {
        "q": result.q, "alice_msgs": result.alice_msgs,
        "bob_msgs": result.bob_msgs,
        "min_avg_error": str(result.average_error),
        "misclassified_pairs": result.misclassified_pairs,
        "worst_case_error": result.worst_case_error,
        "strategies_searched": result.strategies_searched,
    }
    witness = {"alice_map": list(result.witness.alice_map),
               "bob_map": list(result.witness.bob_map),
               "referee": [[v.value for v in r]
                           for r in result.witness.referee]}
    print(f"searched {result.strategies_searched} strategies: "
          f"min average error = {result.average_error} "
          f"({result.misclassified_pairs} of {result.q**2} pairs)")
    print(f"alice map:   {witness['alice_map']}")
    print(f"bob map:     {witness['bob_map']}")
    print("referee table (rows = alice message, cols = bob message):")
    for i, cells in enumerate(witness["referee"]):
        print(f"  msg {i}: " + "  ".join(cells))
    _emit(args, {"command": "classical", "mode": "brute_force",
                 "rows": [row], "witness": witness})
    return 0


# --- feasibility --------------------------------------------------------------

# option dest -> ImperfectionModel field; an option left unset keeps the
# model's default
_MODEL_FIELDS = {"mu_photon": "mean_photon_number",
                 "transmission": "transmission",
                 "efficiency": "detector_efficiency",
                 "dark": "dark_count_prob", "period": "pulse_period",
                 "separation": "separation", "index": "refractive_index",
                 "deterministic_source": "deterministic_source",
                 "window_factor": "window_factor"}


def _build_model(args) -> physical.ImperfectionModel:
    return physical.ImperfectionModel(**{
        field: getattr(args, dest) for dest, field in _MODEL_FIELDS.items()
        if getattr(args, dest) is not None})


def cmd_feasibility(args) -> int:
    model = _build_model(args)
    if args.noise or args.sweep_dark is not None:
        _require(args, ["pn"])
        # every point is computed before the first line is printed, so a
        # rejected input (pn, k, trials, slot window, swept value) leaves
        # stdout empty
        values = (args.sweep_dark if args.sweep_dark is not None
                  else [model.dark_count_prob])
        points = list(zip(values, physical.dark_count_sweep(
            model, values, args.pn, args.k, args.trials, args.seed,
            slots=args.slots)))
        print(f"master_seed = {args.seed}")
        if args.sweep_dark is not None:
            for value, rates in points:
                print(f"dark={value!r}: false_eq={rates.false_equal_rate!r} "
                      f"false_neq={rates.false_notequal_rate!r} "
                      f"abort={rates.abort_rate!r}")
        else:
            [(_, rates)] = points
            print(f"false_equal = {rates.false_equal_rate!r} "
                  f"(+- {rates.false_equal_stderr!r})")
            print(f"false_notequal = {rates.false_notequal_rate!r} "
                  f"(+- {rates.false_notequal_stderr!r})")
            print(f"abort = {rates.abort_rate!r} "
                  f"(+- {rates.abort_stderr!r})")
        _emit(args, {"command": "feasibility", "mode": "noise",
                     "master_seed": args.seed, "k": args.k,
                     "trials": args.trials, "pn": args.pn,
                     # the six rate and standard-error fields that close
                     # physical.NoiseRates
                     "rows": [{"parameter": "dark_count_prob", "value": value,
                               **dict(zip(rates._fields[-6:], rates[-6:]))}
                              for value, rates in points]})
        return 0

    _reject_out(args)
    slots = physical.feasible_d(model)
    payload = {
        "command": "feasibility", "mode": "slots",
        "separation_m": model.separation,
        "pulse_period_s": model.pulse_period,
        "refractive_index": model.refractive_index,
        "window_factor": model.window_factor,
        **slots._asdict(),
    }
    if args.mu_photon is not None:
        dist = physical.photon_number_distribution(args.mu_photon)
        payload["photon_statistics"] = {"mean_photon_number": args.mu_photon,
                                        **dist._asdict()}
        print(f"photon statistics (mean {args.mu_photon!r}): "
              f"p0 = {dist.p_zero!r}, p1 = {dist.p_one!r}, "
              f"p_multi = {dist.p_multi!r}")
    print(f"d_vacuum = {slots.d_vacuum}, d_fiber = {slots.d_fiber}, "
          f"d_nominal_3us = {slots.d_nominal_3us}")
    _emit(args, payload)
    return 0


# --- codes ---------------------------------------------------------------------

def cmd_codes(args) -> int:
    if args.action == "export":
        code = _build_code(args)
        ecc.save_code(code, args.out)
        print(f"wrote {args.out}: n={code.n} m={code.m} t={code.t} "
              f"kind={code.kind.value}")
        return 0
    code = ecc.load_code(args.infile)
    if args.action in ("show", "import"):
        print(f"n={code.n} m={code.m} t={code.t} kind={code.kind.value} "
              f"relative_distance={code.relative_distance!r}"
              + (" DEGENERATE" if code.degenerate else ""))
        return 0
    # verify: recompute the distance exhaustively and compare
    actual = ecc.min_distance_bruteforce(code)
    print(f"declared t = {code.t}, brute-forced t = {actual}")
    if actual != code.t:
        print("MISMATCH: declared distance is wrong", file=sys.stderr)
        return 1
    print("distance verified")
    return 0


# --- parser -----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qfp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    run = sub.add_parser("run", help="protocol runs")
    cla = sub.add_parser("classical", help="classical baselines")
    fea = sub.add_parser("feasibility", help="pulse-train feasibility")
    for command in (run, cla, fea):
        command.add_argument("--config")
    run.add_argument("--code",
                     help="identity | repetition | hadamard | random")
    run.add_argument("--n", type=int, help="message length")
    run.add_argument("--r", type=int, help="repetition factor")
    run.add_argument("--m", type=int, help="codeword length (random codes)")
    run.add_argument("--code-seed", type=int, default=0)
    run.add_argument("--code-file",
                     help="load a saved code instead of constructing one")
    run.add_argument("--x", help="Alice's input bits, e.g. 0000")
    run.add_argument("--y", help="Bob's input bits")
    run.add_argument("--exact", action="store_true",
                     help="exact port statistics only, no sampling")
    run.add_argument("--k", type=int, help="repetitions per protocol")
    run.add_argument("--epsilon", type=float, default=0.01,
                     help="target error (sets k when --k is absent)")
    run.add_argument("--trials", type=int, default=1,
                     help="sampled protocols to run")
    run.add_argument("--seed", type=int, default=0, help="master seed")
    run.add_argument("--phase-protocol", action="store_true",
                     help="single-symbol phase protocol instead of codes")
    run.add_argument("--q", type=int, help="phase-protocol alphabet size")
    run.add_argument("--phase-x", type=int)
    run.add_argument("--phase-y", type=int)
    run.add_argument("--all-pairs", action="store_true")

    cla.add_argument("--q", type=int, help="input alphabet size")
    cla.add_argument("--alice", type=int, help="alice's message count")
    cla.add_argument("--bob", type=int, help="bob's message count")
    cla.add_argument("--bounds", action="store_true",
                     help="lower-bound calculator for n-bit inputs")
    cla.add_argument("--breakeven", action="store_true",
                     help="search the quantum/classical break-even n")
    cla.add_argument("--n", type=int, help="input length for --bounds")
    cla.add_argument("--epsilon", type=float)
    cla.add_argument("--mu", type=float, help="code rate parameter")

    fea.add_argument("--L", "--separation", dest="separation",
                     type=parse_length, help="Alice-Bob distance (m, km)")
    fea.add_argument("--period", type=parse_time,
                     help="pulse period (s, ms, us, ns, ps)")
    fea.add_argument("--index", type=float, help="refractive index")
    fea.add_argument("--window-factor", type=float)
    fea.add_argument("--mu-photon", type=float,
                     help="mean photon number of the attenuated train")
    fea.add_argument("--noise", action="store_true",
                     help="Monte Carlo error rates under imperfections")
    fea.add_argument("--pn", type=float,
                     help="per-run N-click probability of the clean protocol")
    fea.add_argument("--k", type=int, default=1)
    fea.add_argument("--trials", type=int, default=10_000)
    fea.add_argument("--seed", type=int, default=0)
    fea.add_argument("--dark", type=float, help="dark count prob per slot")
    fea.add_argument("--transmission", type=float)
    fea.add_argument("--efficiency", type=float)
    fea.add_argument("--slots", type=int,
                     help="dark-count slot window (default: from geometry)")
    fea.add_argument("--deterministic-source", action="store_true")
    fea.add_argument("--sweep-dark", type=_float_list,
                     help="comma-separated dark count probabilities")

    for command, handler in ((run, cmd_run), (cla, cmd_classical),
                             (fea, cmd_feasibility)):
        command.add_argument("--out", help="CSV output path")
        command.add_argument("--json", help="JSON output path")
        command.set_defaults(handler=handler)

    cod = sub.add_parser("codes", help="code file tools")
    cod_sub = cod.add_subparsers(dest="action", parser_class=_Parser)
    exp = cod_sub.add_parser("export")
    # parsed into run's option names, so _build_code reads them as they are
    exp.add_argument("--kind", required=True, dest="code", metavar="KIND",
                     help="identity | repetition | hadamard | random")
    exp.add_argument("--n", type=int, required=True)
    exp.add_argument("--r", type=int)
    exp.add_argument("--m", type=int)
    exp.add_argument("--seed", type=int, default=0, dest="code_seed",
                     metavar="SEED")
    exp.add_argument("--out", required=True)
    exp.set_defaults(code_file=None)
    show = cod_sub.add_parser("show", aliases=["import"])
    show.add_argument("--in", dest="infile", required=True)
    ver = cod_sub.add_parser("verify")
    ver.add_argument("--in", dest="infile", required=True)
    cod.set_defaults(handler=cmd_codes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.command == "codes" and getattr(args, "action", None) is None:
            print("qfp codes: choose one of export, import, show, verify",
                  file=sys.stderr)
            return 1
        if args.command != "codes":
            if args.config:
                # the file's section becomes the subcommand's defaults; a
                # second parse lets every explicit flag win over them
                types = _config_types(parser, args.command)
                _subparser(parser, args.command).set_defaults(
                    **_load_config_section(args.config, args.command, types))
                args = parser.parse_args(argv)
            if args.out and args.json and (os.path.realpath(args.out)
                                           == os.path.realpath(args.json)):
                raise _UsageError(f"qfp {args.command}: --out and --json "
                                  f"are the same file {args.json!r}")
        return args.handler(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except (QfpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
