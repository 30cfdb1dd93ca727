"""Command-line front end.

Subcommands: gas, file, broadcast, compute-bound, clausius, simulate, sweep.
Output is human-readable text by default; ``--json`` emits one envelope
object per invocation and ``--csv`` a header row plus data rows. The
environment variable ``INFOTHERM_FORMAT`` (text, json or csv) sets the
default format; flags override it.

The JSON envelope has five keys: command, inputs (echoed parameters, each
with a unit), results (flat values), units (unit string per numeric result)
and warnings. Non-finite numbers are serialized as the strings "inf",
"-inf" and "nan". The schema ships in ``infotherm/data/output_schema.json``.

Each leaf command is declared once, by ``@_command`` on its handler, with a
table of ``_Flag`` rows (name, parser, unit, default, help) from which the
parser, the help texts and the ``inputs`` block are built. Every typed
result goes through ``Envelope.add_results``, which copies the fields that
its dataclass declares with ``quantities.unit`` (a unit, and a printed name
where it differs); only a bare float is named where its handler adds it.

``sweep`` reads its target's table first: an unknown or non-numeric flag,
or a grid the flag's own parser refuses (5.5 for a count), is a usage
error, and more than one point of ``file analyze`` without ``--path`` a
domain error, since stdin can be read only once. It parses the target once;
each point is a copy of that namespace with only the swept flag set. A
log grid whose ratio leaves the float range is computed in decimal
arithmetic, so its points stay between its bounds. Its CSV header is the
union of the points' scalar names, in first-seen order.

A module loads when a command first needs it: each handler imports its own
library module, and json, csv and dataclasses are imported where a renderer,
``clausius`` or ``_reported_fields`` uses them. ``import infotherm.cli``
loads argparse, the package, ``errors`` and ``quantities``; ``--help`` loads
no other library module.

All numeric flags accept scientific notation. Units are fixed SI; there is
no unit-suffix parsing.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
A reader that closes stdout early (``| head``) also gives exit 1 and one
``error:`` line, never a traceback.
"""

import argparse
import collections
import functools
import math
import os
import sys

from .errors import (DomainError, require_count, require_finite, require_positive, require_result,
                     require_within_budget, require_within_step_budget)
from .quantities import bits_to_nats, convert_information, entropy_si_to_nats

FORMAT_ENV_VAR = "INFOTHERM_FORMAT"


def _count(text: str) -> int:
    """Integer flag value; scientific notation like 1e6 is accepted.

    Plain integer literals are parsed exactly, so 64-bit seeds survive. A
    count beyond the float range is refused: every count meets float
    arithmetic somewhere.
    """
    try:
        value = int(text)
    except ValueError:
        value = float(text)
    if not abs(value) <= sys.float_info.max:
        raise argparse.ArgumentTypeError(f"expected a finite integer, got {text!r}")
    if isinstance(value, int):
        return value
    rounded = round(value)
    if abs(value - rounded) > 1e-9 * max(1.0, abs(value)):
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    return int(rounded)


class Envelope:
    """One invocation's worth of output."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: dict = {}
        self.results: dict = {}
        self.units: dict = {}
        self.warnings: list[str] = []

    def add_input(self, name, value, unit: str):
        self.inputs[name] = {"value": value, "unit": unit}

    def add(self, name, value, unit: str | None = None):
        self.results[name] = value
        if unit is not None:
            self.units[name] = unit

    def add_results(self, result):
        """Add every field of a result dataclass that declares a unit, under its printed name."""
        for field, name, unit in _reported_fields(type(result)):
            self.add(name, getattr(result, field), unit)

    def warn(self, message: str):
        self.warnings.append(message)


@functools.cache
def _reported_fields(cls) -> tuple[tuple[str, str, str | None], ...]:
    """(field, printed name, unit) of each field of ``cls`` declared with ``quantities.unit``."""
    import dataclasses

    return tuple((f.name, f.metadata["name"] or f.name, f.metadata["unit"])
                 for f in dataclasses.fields(cls) if "unit" in f.metadata)


#: Result values rendered as one JSON value in text and left out of CSV rows.
_COMPOUND = (list, tuple, dict)


def _jsonable(value):
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _format_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _render_text(env: Envelope, stream) -> None:
    stream.write(f"command: {env.command}\n")
    stream.write("inputs:\n")
    for name, entry in env.inputs.items():
        stream.write(f"  {name} = {_format_scalar(entry['value'])} [{entry['unit']}]\n")
    stream.write("results:\n")
    for name, value in env.results.items():
        if isinstance(value, _COMPOUND):
            import json

            stream.write(f"  {name} = {json.dumps(_jsonable(value))}\n")
            continue
        unit = env.units.get(name)
        suffix = f" [{unit}]" if unit else ""
        stream.write(f"  {name} = {_format_scalar(value)}{suffix}\n")
    for message in env.warnings:
        stream.write(f"warning: {message}\n")


def _render_json(env: Envelope, stream) -> None:
    """The envelope's five attributes, in order, are the JSON object's keys."""
    import json

    json.dump(_jsonable(vars(env)), stream, indent=2)
    stream.write("\n")


def _render_csv(env: Envelope, stream) -> None:
    """Scalar results as one CSV row; ensemble runs expand to many rows."""
    if "runs" in env.results and isinstance(env.results["runs"], list):
        header = ["seed", "p_final", "heat_to_cold", "total_entropy_change"]
        rows = [[run[key] for key in header] for run in env.results["runs"]]
    else:
        header = [k for k, v in env.results.items() if not isinstance(v, _COMPOUND)]
        rows = [[env.results[k] for k in header]]
    _write_csv(stream, header, rows)


def _write_csv(stream, header: list[str], rows) -> None:
    """``header`` then one line per row of values; a row shorter than the header ends in empty cells."""
    import csv

    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    width = len(header)
    writer.writerows(map(_format_scalar, row if len(row) == width else row + [None] * (width - len(row)))
                     for row in rows)


_RENDERERS = {"text": _render_text, "json": _render_json, "csv": _render_csv}


#: Default of a flag that must be given; on the flags of a mutually exclusive
#: group (a tuple of rows), it makes the group required.
_REQUIRED = object()


#: A command-table row for the flag ``--name`` (stored with "-" as "_").
#: ``parse`` is ``_count``, ``float``, ``str``, ``bool`` (a switch) or a tuple
#: of choices. The help shows ``[unit]`` ahead of any parenthesized note, and
#: the value is echoed with its unit unless ``echo`` is False.
_Flag = collections.namedtuple("_Flag", "name parse unit default help echo", defaults=(True,))


#: Leaf command ("gas temperature", "simulate", ...) -> (help, handler, flag
#: rows), in the order the help lists them.
_COMMANDS: dict = {}

#: The subcommands that group leaf commands, with their help lines.
_GROUPS = {"gas": "two-level gas calculator", "file": "binary-file thermodynamics",
           "broadcast": "broadcast thermodynamics"}


def _command(name: str, help_line: str, *flags):
    """Declare the decorated handler as leaf command ``name`` with these flag rows."""
    def declare(run):
        _COMMANDS[name] = (help_line, run, flags)
        return run
    return declare


@functools.cache
def _rows(name: str) -> dict:
    """The flag rows of leaf command ``name`` by dest, group members included."""
    flags = _COMMANDS[name][2]
    return {f.name.replace("-", "_"): f for entry in flags for f in ((entry,) if isinstance(entry, _Flag) else entry)}


def _echo(env: Envelope, args) -> None:
    """Echo flag values into ``env.inputs``, with their rows' units.

    Each row with a unit and not marked ``echo=False``, in table order; None
    values are skipped. ``_execute`` calls it after the handler, which may
    resolve values first.
    """
    for dest, flag in _rows(args.leaf).items():
        value = getattr(args, dest)
        if flag.unit and flag.echo and value is not None:
            env.add_input(dest, value, flag.unit)


_L = _Flag("L", _count, "count", _REQUIRED, "number of sites")
_P = _Flag("p", _count, "count", _REQUIRED, "number of excited sites")
_EPSILON = _Flag("epsilon", float, "J", _REQUIRED, "energy of an excited site")
_POWER = _Flag("power", float, "W", _REQUIRED, "radiated power")
_BIT_RATE = _Flag("bit-rate", float, "bit/s", _REQUIRED, "bit rate")
_CARRIER = _Flag("carrier", float, "Hz", None, "carrier frequency (default: bit rate)")
_AREA = _Flag("area", float, "m^2", None, "receiver area (overrides --area-mode)")

#: ``--area-mode`` presets: the receiver area is the wavelength squared over this.
_AREA_MODES = {"wavelength-squared": 1.0, "wavelength-squared-over-100": 100.0}
_AREA_MODE = _Flag("area-mode", tuple(_AREA_MODES), "m^2", "wavelength-squared", "receiver area preset", echo=False)

#: ``--json`` and ``--csv``: a mutually exclusive group on every leaf command.
_FORMAT_FLAGS = (
    _Flag("json", bool, None, False, "emit a JSON envelope (default: text)"),
    _Flag("csv", bool, None, False, "emit CSV: header row then data rows (default: text)"),
)

_SWEEP_FLAGS = (
    _Flag("param", str, None, _REQUIRED, "flag name to sweep, without dashes (e.g. epsilon)"),
    _Flag("start", float, "unit of the swept flag", _REQUIRED, "first value"),
    _Flag("stop", float, "unit of the swept flag", _REQUIRED, "last value"),
    _Flag("count", _count, "count", _REQUIRED, "number of points"),
    _Flag("log", bool, None, False, "space points geometrically instead of linearly"),
)


# --------------------------------------------------------------------------
# handlers: each calls the library and adds typed results by add_results; rows are echoed after


#: The warning of a temperature that is +inf, at exactly half filling.
_HALF_FILLING = "infinite temperature: occupation is exactly half filling"


@_command("gas temperature", "equilibrium temperature from (L, p, epsilon)", _L, _P, _EPSILON)
def _gas_temperature(args, env: Envelope) -> None:
    from . import twolevel

    temp = twolevel.gas_temperature(twolevel.GasSpec(args.L, args.p, args.epsilon))
    env.add_results(temp)
    if temp.infinite:
        env.warn(_HALF_FILLING)
    if temp.inverted:
        env.warn("population inversion: more than half the sites are excited (negative temperature)")


@_command("gas entropy", "exact and Stirling entropy of (L, p)", _L, _P)
def _gas_entropy(args, env: Envelope) -> None:
    from . import twolevel

    exact = twolevel.multiplicity_ln(args.L, args.p)
    env.add("entropy_exact", exact, "nats")
    env.add("entropy_exact_bits", convert_information(exact, "bits"), "bits")
    env.add("entropy_si", convert_information(exact, "J/K"), "J/K")
    if 0 < args.p < args.L:
        env.add("entropy_stirling", twolevel.entropy_stirling(args.L, args.p), "nats")
    else:
        env.add("entropy_stirling", None, "nats")
        env.warn("Stirling form undefined at the occupation endpoints; exact value reported")


@_command("gas occupation", "equilibrium mean ones count at temperature T",
          _L, _Flag("T", float, "K", _REQUIRED, "temperature"), _EPSILON)
def _gas_occupation(args, env: Envelope) -> None:
    from . import twolevel

    env.add("occupation", twolevel.occupation_at(args.L, args.T, args.epsilon), "count")


@_command("gas transfer", "hot->cold transfer entropy ledger",
          _L,
          _Flag("p-hot", _count, "count", _REQUIRED, "hot-side excited count"),
          _Flag("p-cold", _count, "count", _REQUIRED, "cold-side excited count"),
          _EPSILON)
def _gas_transfer(args, env: Envelope) -> None:
    from . import twolevel

    ledger = twolevel.transfer_entropy_delta(args.L, args.p_hot, args.p_cold, args.epsilon)
    env.add_results(ledger)
    if not ledger.canonical:
        env.warn("non-canonical ordering: expected 0 < p_cold <= p_hot < L/2")


@_command("gas state", "full derived state for (L, p, epsilon)", _L, _P, _EPSILON)
def _gas_state(args, env: Envelope) -> None:
    from . import twolevel

    spec = twolevel.GasSpec(args.L, args.p, args.epsilon)
    state = twolevel.gas_state(spec)
    env.add("energy", spec.energy, "J")
    env.add_results(state)
    if state.temperature is None:
        env.add("temperature", None, "K")
        env.warn("temperature undefined at the occupation endpoints (zero-temperature limit)")
        return
    env.add_results(state.temperature)
    if state.temperature.infinite:
        env.warn(_HALF_FILLING)


@_command("file analyze", "full report for a file or stdin",
          _Flag("epsilon", float, "J", _REQUIRED, "energy assigned to a one bit"),
          _Flag("block-k", _count, "bit", 8, "block size for block entropy"),
          _Flag("path", str, None, None, "input file (default: read stdin)"))
def _file_analyze(args, env: Envelope) -> None:
    from . import fileinfo

    if args.path is not None:
        with open(args.path, "rb") as handle:
            data = handle.read()
    else:
        data = sys.stdin.buffer.read()
    env.add_input("source", "<stdin>" if args.path is None else args.path, "path")
    report = fileinfo.analyze(data, args.epsilon, args.block_k)
    env.add_results(report)
    if report.info_block_k is None:
        env.warn("input too short for block entropy even at k=1; info_block_k omitted")
    if report.is_equilibrium:
        env.warn("equilibrium (incompressible): score >= 0.95")


def _resolve_area(args) -> float:
    """``--area``, else the ``--area-mode`` preset; the link flags are checked either way."""
    from . import broadcast

    wavelength = broadcast.LinkBudget(
        power=args.power, bit_rate=args.bit_rate, receiver_area=1.0, carrier_frequency=args.carrier
    ).wavelength
    if args.area is not None:
        return args.area
    return broadcast._squared(wavelength, "wavelength") / _AREA_MODES[args.area_mode]


@_command("broadcast range", "maximum broadcast range",
          _POWER, _BIT_RATE, _CARRIER, _AREA, _AREA_MODE,
          _Flag("noise-temp", float, "K", 300.0, "noise temperature"),
          _Flag("margin", float, "dimensionless", 10.0, "SNR safety factor"),
          _Flag("criterion", ("bit-energy", "file-temperature"), "mode", "bit-energy", "detection criterion"))
def _broadcast_range(args, env: Envelope) -> None:
    from . import broadcast

    args.area = _resolve_area(args)
    budget = broadcast.LinkBudget(
        power=args.power,
        bit_rate=args.bit_rate,
        receiver_area=args.area,
        carrier_frequency=args.carrier,
        noise_temperature=args.noise_temp,
        snr_margin=args.margin,
    )
    args.carrier = budget.carrier_frequency
    env.add("max_range", broadcast.max_range(budget, args.criterion), "m")
    env.add("wavelength", budget.wavelength, "m")
    env.add("transmitter_temperature", broadcast.transmitter_temperature(args.power, args.bit_rate), "K")


@_command("broadcast temperature", "transmitter/receiver temperatures",
          _POWER, _BIT_RATE,
          _CARRIER._replace(echo=False),
          _AREA,
          _Flag("distance", float, "m", None, "receiver distance (optional)"),
          _AREA_MODE)
def _broadcast_temperature(args, env: Envelope) -> None:
    from . import broadcast

    t_source = broadcast.transmitter_temperature(args.power, args.bit_rate)
    env.add("transmitter_temperature", t_source, "K")
    env.add("equivalent_bit_energy", broadcast.equivalent_bit_energy(args.power, args.bit_rate), "J")
    if args.distance is None:
        args.area = None  # the area goes unused, so it is not echoed
        return
    args.area = _resolve_area(args)
    received = broadcast.receiver_temperature(t_source, args.area, args.distance)
    env.add_results(received)
    if received.oversized_aperture:
        env.warn("geometric factor >= 1: receiver area covers the full sphere")


@_command("broadcast balance", "N-receiver entropy balance",
          (_Flag("info-nats", float, "nats", _REQUIRED, "file information", echo=False),
           _Flag("info-bits", float, "bits", _REQUIRED, "file information", echo=False)),
          _Flag("receivers", _count, "count", _REQUIRED, "number of receivers"))
def _broadcast_balance(args, env: Envelope) -> None:
    from . import broadcast

    info = args.info_nats if args.info_nats is not None else bits_to_nats(args.info_bits)
    env.add_input("info", info, "nats")
    balance = broadcast.broadcast_entropy_balance(info, args.receivers)
    env.add_results(balance)
    env.add("information_increase", entropy_si_to_nats(balance.entropy_increase), "nats")


@_command("broadcast capacity", "area-law maximum broadcast information",
          _BIT_RATE,
          _Flag("carrier", float, "Hz", _REQUIRED, "carrier frequency"),
          _Flag("radius", float, "m", _REQUIRED, "antenna radius"),
          _Flag("duration", float, "s", 1.0, "broadcast duration"))
def _broadcast_capacity(args, env: Envelope) -> None:
    from . import broadcast

    bound = broadcast.max_broadcast_information(args.bit_rate, args.carrier, args.radius, args.duration)
    env.add_results(bound)
    if bound.subwavelength:
        env.warn("antenna radius below the carrier wavelength; the area law assumes radius >> wavelength")


@_command("compute-bound", "computing-rate bound",
          _Flag("power", float, "W", _REQUIRED, "dissipated power"),
          _Flag("noise-temp", float, "K", 300.0, "ambient noise temperature"),
          _Flag("margin", float, "dimensionless", 10.0, "operating margin over noise"))
def _compute_bound(args, env: Envelope) -> None:
    from . import bounds

    env.add("max_rate", bounds.max_computing_rate(args.power, args.noise_temp, args.margin), "bit/s")


#: The keys a clausius ledger may have; a misspelt key is an error, never ignored.
_LEDGER_KEYS = ("delta_S", "heat_terms", "info_term", "tolerance")


@_command("clausius", "check an entropy ledger",
          _Flag("ledger", str, None, "-", 'JSON ledger path, or "-" for stdin; keys: delta_S [J/K], '
                                          "heat_terms [[J, K]...], info_term [nats], tolerance [J/K]"))
def _clausius(args, env: Envelope) -> None:
    import json

    from . import bounds

    try:
        if args.ledger == "-":
            text = sys.stdin.read()
        else:
            with open(args.ledger, "r", encoding="utf-8") as handle:
                text = handle.read()
        payload = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise DomainError(f"ledger is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "delta_S" not in payload:
        raise DomainError('ledger JSON must be an object with at least "delta_S"')
    unknown = sorted(payload.keys() - _LEDGER_KEYS)
    if unknown:
        raise DomainError(f"ledger has unknown keys {unknown}; allowed keys are {', '.join(_LEDGER_KEYS)}")
    ledger = bounds.clausius_check(payload["delta_S"], payload.get("heat_terms", []), payload.get("info_term", 0.0),
                                   payload.get("tolerance"))
    env.add_input("ledger", "<stdin>" if args.ledger == "-" else args.ledger, "path")
    env.add_results(ledger)


@_command("simulate", "hot->cold transfer simulation",
          _L,
          _Flag("t-hot", float, "K", _REQUIRED, "hot bath temperature"),
          _Flag("t-cold", float, "K", _REQUIRED, "cold bath temperature"),
          _EPSILON,
          _Flag("steps", _count, "count", None, "Metropolis steps (default: 100 * L)"),
          _Flag("seed", _count, "count", 0, "RNG seed"),
          _Flag("ensemble", _count, "count", None, "run this many seeds starting at --seed and summarize"))
def _simulate(args, env: Envelope) -> None:
    from . import mcsim

    args.steps = _simulate_steps(args)
    if args.ensemble is None:
        env.add_results(mcsim.simulate_transfer(args.L, args.t_hot, args.t_cold, args.epsilon, args.steps, args.seed))
        return
    seeds = range(args.seed, args.seed + args.ensemble)
    ledgers = mcsim.run_ensemble(args.L, args.t_hot, args.t_cold, args.epsilon, args.steps, seeds)
    fields = _reported_fields(mcsim.SimLedger)
    env.add("runs", [{name: getattr(led, field) for field, name, _ in fields} for led in ledgers])
    env.add_results(mcsim.ensemble_summary(ledgers))


def _simulate_steps(args) -> int:
    """The steps of each run of a simulate command: --steps, or 100 * L by default."""
    return 100 * args.L if args.steps is None else args.steps


# --------------------------------------------------------------------------
# parser


def _add_flags(parser, flags: tuple) -> None:
    """Add each row as a flag; a tuple of rows becomes a mutually exclusive group.

    The help shows the default unless the row's help gives its own.
    """
    for entry in flags:
        group = not isinstance(entry, _Flag)
        target = parser.add_mutually_exclusive_group(required=entry[0].default is _REQUIRED) if group else parser
        for flag in entry if group else (entry,):
            text, paren, note = flag.help.partition(" (")
            shown = f"{text} [{flag.unit}]{paren}{note}" if flag.unit else flag.help
            kind = ({"action": "store_true"} if flag.parse is bool
                    else {"choices": flag.parse} if isinstance(flag.parse, tuple) else {"type": flag.parse})
            target.add_argument(
                "--" + flag.name,
                **kind,
                required=flag.default is _REQUIRED and not group,
                default=None if flag.default is _REQUIRED else flag.default,
                help=shown if "(default:" in shown else shown + " (default: %(default)s)",
            )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The full parser, built on the first call and shared by every later one.

    Callers must not modify it: ``main`` reuses it for every invocation.
    """
    parser = argparse.ArgumentParser(
        prog="infotherm",
        description="Thermodynamics of bits: two-level gas, file analysis, broadcast and computing bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, (help_line, _, flags) in _COMMANDS.items():
        group, _, action = name.rpartition(" ")
        if group and group not in groups:
            group_parser = sub.add_parser(group, help=_GROUPS[group])
            groups[group] = group_parser.add_subparsers(dest=f"{group}_action", required=True)
        leaf = groups.get(group, sub).add_parser(action, help=help_line)
        leaf.set_defaults(leaf=name)
        _add_flags(leaf, (_FORMAT_FLAGS,) + flags)
    sweep = sub.add_parser("sweep", help="iterate one numeric flag of another subcommand over a range; emits CSV")
    _add_flags(sweep, _SWEEP_FLAGS)
    sweep.add_argument("target", nargs=argparse.REMAINDER,
                       help="target subcommand and its fixed flags (prefix with --)")
    return parser


def _execute(args) -> Envelope:
    env = Envelope(args.leaf)
    _COMMANDS[args.leaf][1](args, env)
    _echo(env, args)
    return env


#: Bytes a sweep keeps per point, rounded up: its value and its CSV row
#: (about 1.2 KB measured for the widest row, a simulate ledger).
_SWEEP_POINT_BYTES = 2048


def _sweep_values(args) -> list[float]:
    require_count(1, count=args.count)
    require_within_budget(args.count * _SWEEP_POINT_BYTES, f"a sweep of {args.count} points")
    if args.count == 1:
        return [args.start]
    if args.log:
        require_positive(start=args.start, stop=args.stop)
        return sorted(_log_grid(args.start, args.stop, args.count))
    require_finite("start", args.start)
    require_finite("stop", args.stop)
    step = (args.stop - args.start) / (args.count - 1)
    values = [args.start + step * i for i in range(args.count)]
    # The last point is the grid's far end: it overflows if the step does, or if step * i rounds past the range.
    require_result("the linear grid from start to stop", values[-1])
    return sorted(values)


def _log_grid(start: float, stop: float, count: int) -> list[float]:
    """``count`` points from ``start`` to ``stop`` (both finite and > 0) in a constant ratio.

    In doubles, point i is start * ratio**i with ratio (stop / start) **
    (1 / (count - 1)). Where that quotient leaves the normal range, or a point
    rounds past it, the points are computed in decimal arithmetic, which has
    the exponent range a double lacks, and each is rounded once to a double;
    so they stay finite, as the points between two finite bounds are. (In log
    space, exp(log(start) + i * log(stop / start) / (count - 1)) would be off
    by about 150 ulps: exp magnifies the rounding of an argument near 690.)
    """
    quotient = stop / start
    if sys.float_info.min <= quotient <= sys.float_info.max:
        ratio = quotient ** (1.0 / (count - 1))
        try:
            values = [start * ratio**i for i in range(count)]
            if math.isfinite(values[-1]):
                return values
        except OverflowError:  # float ** int raises where float * float gives inf
            pass
    import decimal

    with decimal.localcontext() as context:
        context.prec = 34
        first = decimal.Decimal(start)
        ratio = (decimal.Decimal(stop) / first) ** (decimal.Decimal(1) / (count - 1))
        return [float(first * ratio**i) for i in range(count)]


def _sweep(args, parser: argparse.ArgumentParser, stream) -> None:
    target = args.target[1:] if args.target[:1] == ["--"] else args.target
    leaf = " ".join(target[:2] if target and target[0] in _GROUPS else target[:1])
    if leaf not in _COMMANDS:
        parser.error(f"sweep needs a result command after the sweep flags, got {leaf!r}")
    name = args.param.lstrip("-").replace("_", "-")
    by_name = {row.name: row for row in _rows(leaf).values()}
    # The exact name, else a unique prefix, as argparse itself accepts.
    matches = [by_name[name]] if name in by_name else [row for n, row in by_name.items() if n.startswith(name)]
    if len(matches) != 1 or matches[0].parse not in (float, _count):
        parser.error(f"--param {args.param!r} is not a numeric flag of {leaf}")
    swept = matches[0]
    flag = "--" + swept.name
    values = _sweep_values(args)
    try:
        parsed = [swept.parse(repr(value)) for value in values]
    except argparse.ArgumentTypeError as exc:
        parser.error(f"argument {flag}: {exc}")
    # One parse ("--flag=value" keeps -1e-05 a value); each point copies it, with its value as argparse stores it.
    base = vars(parser.parse_args(target + [f"{flag}={values[0]!r}"]))
    dest = swept.name.replace("-", "_")
    def point(value) -> argparse.Namespace:
        return argparse.Namespace(**{**base, dest: value})
    if leaf == "file analyze" and base["path"] is None and len(values) > 1:
        raise DomainError("a sweep cannot re-read stdin at every point; give file analyze a --path")
    if leaf == "simulate":  # the steps of every run of every point, checked before the first one runs
        total = sum(_simulate_steps(p) * (1 if p.ensemble is None else p.ensemble) for p in map(point, parsed))
        require_within_step_budget(total, f"a sweep of {len(values)} simulate points")
    names, rows = {}, []  # the header: every point's scalar names, in first-seen order
    for value, parsed_value in zip(values, parsed):
        scalars = {k: v for k, v in _execute(point(parsed_value)).results.items() if not isinstance(v, _COMPOUND)}
        if not scalars.keys() <= names.keys():
            names.update(dict.fromkeys(scalars))
        rows.append([value] + [scalars.get(k) for k in names])
    _write_csv(stream, [args.param, *names], rows)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = os.environ.get(FORMAT_ENV_VAR) or "text"
    if fmt not in _RENDERERS:
        parser.error(f"{FORMAT_ENV_VAR} must be one of {', '.join(_RENDERERS)}, got {fmt!r}")
    if getattr(args, "json", False):
        fmt = "json"
    elif getattr(args, "csv", False):
        fmt = "csv"
    try:
        if args.command == "sweep":
            _sweep(args, parser, sys.stdout)
        else:
            _RENDERERS[fmt](_execute(args), sys.stdout)
        sys.stdout.flush()
    except (DomainError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):  # the reader left early (| head): the flush at exit goes to /dev/null
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
