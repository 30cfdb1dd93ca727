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

A result dataclass declares the unit of each reported field on the field
itself (``quantities.unit``). ``Envelope.add_results`` copies exactly the
fields that declare a unit, in field order; a field without one (an echoed
input) is not reported.

All numeric flags accept scientific notation. Units are fixed SI; there is
no unit-suffix parsing.

Exit codes: 0 success, 1 domain error (message on stderr), 2 usage error.
"""

import argparse
import csv as csv_module
import dataclasses
import functools
import json
import math
import os
import sys

from . import bounds, broadcast, fileinfo, twolevel
from .errors import DomainError, require_within_budget
from .quantities import K_B, LN2, convert_information

FORMAT_ENV_VAR = "INFOTHERM_FORMAT"
_FORMATS = ("text", "json", "csv")


def _count(text: str) -> int:
    """Integer flag value; scientific notation like 1e6 is accepted.

    Plain integer literals are parsed exactly, so 64-bit seeds survive.
    """
    try:
        return int(text)
    except ValueError:
        pass
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite integer, got {text!r}")
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
        """Add every field of a result dataclass that declares a unit."""
        for name, unit in _reported_fields(type(result)):
            self.add(name, getattr(result, name), unit)

    def warn(self, message: str):
        self.warnings.append(message)


@functools.cache
def _reported_fields(cls) -> tuple[tuple[str, str | None], ...]:
    """(name, unit) of each field of ``cls`` declared with ``quantities.unit``."""
    return tuple((f.name, f.metadata["unit"]) for f in dataclasses.fields(cls) if "unit" in f.metadata)


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
            stream.write(f"  {name} = {json.dumps(_jsonable(value))}\n")
            continue
        unit = env.units.get(name)
        suffix = f" [{unit}]" if unit else ""
        stream.write(f"  {name} = {_format_scalar(value)}{suffix}\n")
    for message in env.warnings:
        stream.write(f"warning: {message}\n")


def _render_json(env: Envelope, stream) -> None:
    payload = {
        "command": env.command,
        "inputs": _jsonable(env.inputs),
        "results": _jsonable(env.results),
        "units": env.units,
        "warnings": env.warnings,
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _csv_rows(env: Envelope) -> tuple[list[str], list[list[str]]]:
    """Scalar results as one CSV row; ensemble runs expand to many rows."""
    if "runs" in env.results and isinstance(env.results["runs"], list):
        header = ["seed", "p_final", "heat_to_cold", "total_entropy_change"]
        rows = [
            [_format_scalar(run[key]) for key in header] for run in env.results["runs"]
        ]
        return header, rows
    header = [k for k, v in env.results.items() if not isinstance(v, _COMPOUND)]
    row = [_format_scalar(env.results[k]) for k in header]
    return header, [row]


def _render_csv(env: Envelope, stream) -> None:
    header, rows = _csv_rows(env)
    writer = csv_module.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _render(env: Envelope, fmt: str, stream) -> None:
    if fmt == "json":
        _render_json(env, stream)
    elif fmt == "csv":
        _render_csv(env, stream)
    else:
        _render_text(env, stream)


# --------------------------------------------------------------------------
# handlers


def _handle_gas(args) -> Envelope:
    action = args.gas_action
    env = Envelope(f"gas {action}")
    if action == "temperature":
        spec = twolevel.GasSpec(args.L, args.p, args.epsilon)
        env.add_input("L", args.L, "count")
        env.add_input("p", args.p, "count")
        env.add_input("epsilon", args.epsilon, "J")
        temp = twolevel.gas_temperature(spec)
        env.add("temperature", temp.kelvin, "K")
        env.add("inverted", temp.inverted)
        if temp.infinite:
            env.warn("infinite temperature: occupation is exactly half filling")
        if temp.inverted:
            env.warn("population inversion: more than half the sites are excited (negative temperature)")
    elif action == "entropy":
        env.add_input("L", args.L, "count")
        env.add_input("p", args.p, "count")
        exact = twolevel.multiplicity_ln(args.L, args.p)
        env.add("entropy_exact", exact, "nats")
        env.add("entropy_exact_bits", convert_information(exact, "bits"), "bits")
        env.add("entropy_si", convert_information(exact, "J/K"), "J/K")
        if 0 < args.p < args.L:
            env.add("entropy_stirling", twolevel.entropy_stirling(args.L, args.p), "nats")
        else:
            env.add("entropy_stirling", None, "nats")
            env.warn("Stirling form undefined at the occupation endpoints; exact value reported")
    elif action == "occupation":
        env.add_input("L", args.L, "count")
        env.add_input("T", args.T, "K")
        env.add_input("epsilon", args.epsilon, "J")
        env.add("occupation", twolevel.occupation_at(args.L, args.T, args.epsilon), "count")
    elif action == "transfer":
        env.add_input("L", args.L, "count")
        env.add_input("p_hot", args.p_hot, "count")
        env.add_input("p_cold", args.p_cold, "count")
        env.add_input("epsilon", args.epsilon, "J")
        ledger = twolevel.transfer_entropy_delta(args.L, args.p_hot, args.p_cold, args.epsilon)
        env.add_results(ledger)
        if not ledger.canonical:
            env.warn("non-canonical ordering: expected 0 < p_cold <= p_hot < L/2")
    else:  # state
        spec = twolevel.GasSpec(args.L, args.p, args.epsilon)
        env.add_input("L", args.L, "count")
        env.add_input("p", args.p, "count")
        env.add_input("epsilon", args.epsilon, "J")
        state = twolevel.gas_state(spec)
        env.add("energy", spec.energy, "J")
        env.add("entropy_exact", state.entropy_exact, "nats")
        env.add("entropy_stirling", state.entropy_stirling, "nats")
        if state.temperature is None:
            env.add("temperature", None, "K")
            env.warn("temperature undefined at the occupation endpoints (zero-temperature limit)")
        else:
            env.add("temperature", state.temperature.kelvin, "K")
            env.add("inverted", state.temperature.inverted)
            if state.temperature.infinite:
                env.warn("infinite temperature: occupation is exactly half filling")
    return env


def _handle_file(args) -> Envelope:
    env = Envelope("file analyze")
    if args.path:
        with open(args.path, "rb") as handle:
            data = handle.read()
        source = args.path
    else:
        data = sys.stdin.buffer.read()
        source = "<stdin>"
    env.add_input("source", source, "path")
    env.add_input("epsilon", args.epsilon, "J")
    env.add_input("block_k", args.block_k, "bit")
    report = fileinfo.analyze(data, args.epsilon, args.block_k)
    env.add_results(report)
    if report.info_block_k is None:
        env.warn("input too short for block entropy even at k=1; info_block_k omitted")
    if report.is_equilibrium:
        env.warn("equilibrium (incompressible): score >= 0.95")
    return env


def _resolve_area(args) -> float:
    carrier = args.carrier if args.carrier is not None else args.bit_rate
    wavelength = broadcast.LinkBudget(
        power=args.power, bit_rate=args.bit_rate, receiver_area=1.0, carrier_frequency=carrier
    ).wavelength
    if args.area is not None:
        return args.area
    if args.area_mode == "wavelength-squared":
        return wavelength**2
    if args.area_mode == "wavelength-squared-over-100":
        return wavelength**2 / 100.0
    raise DomainError("provide --area or --area-mode")


def _handle_broadcast(args) -> Envelope:
    action = args.broadcast_action
    env = Envelope(f"broadcast {action}")
    if action == "range":
        area = _resolve_area(args)
        budget = broadcast.LinkBudget(
            power=args.power,
            bit_rate=args.bit_rate,
            receiver_area=area,
            carrier_frequency=args.carrier,
            noise_temperature=args.noise_temp,
            snr_margin=args.margin,
        )
        env.add_input("power", args.power, "W")
        env.add_input("bit_rate", args.bit_rate, "bit/s")
        env.add_input("carrier", budget.carrier_frequency, "Hz")
        env.add_input("area", area, "m^2")
        env.add_input("noise_temp", args.noise_temp, "K")
        env.add_input("margin", args.margin, "dimensionless")
        env.add_input("criterion", args.criterion, "mode")
        env.add("max_range", broadcast.max_range(budget, args.criterion), "m")
        env.add("wavelength", budget.wavelength, "m")
        env.add("transmitter_temperature", broadcast.transmitter_temperature(args.power, args.bit_rate), "K")
    elif action == "temperature":
        env.add_input("power", args.power, "W")
        env.add_input("bit_rate", args.bit_rate, "bit/s")
        t_source = broadcast.transmitter_temperature(args.power, args.bit_rate)
        env.add("transmitter_temperature", t_source, "K")
        env.add("equivalent_bit_energy", broadcast.equivalent_bit_energy(args.power, args.bit_rate), "J")
        if args.distance is not None:
            area = _resolve_area(args)
            env.add_input("area", area, "m^2")
            env.add_input("distance", args.distance, "m")
            received = broadcast.receiver_temperature(t_source, area, args.distance)
            env.add("receiver_temperature", received.kelvin, "K")
            env.add("geometric_factor", received.geometric_factor, "dimensionless")
            if received.oversized_aperture:
                env.warn("geometric factor >= 1: receiver area covers the full sphere")
    elif action == "balance":
        if args.info_nats is not None:
            info = args.info_nats
        elif args.info_bits is not None:
            info = args.info_bits * LN2
        else:
            raise DomainError("provide --info-nats or --info-bits")
        env.add_input("info", info, "nats")
        env.add_input("receivers", args.receivers, "count")
        balance = broadcast.broadcast_entropy_balance(info, args.receivers)
        env.add_results(balance)
        env.add("information_increase", balance.entropy_increase / K_B, "nats")
    else:  # capacity
        env.add_input("bit_rate", args.bit_rate, "bit/s")
        env.add_input("carrier", args.carrier, "Hz")
        env.add_input("radius", args.radius, "m")
        env.add_input("duration", args.duration, "s")
        bound = broadcast.max_broadcast_information(args.bit_rate, args.carrier, args.radius, args.duration)
        env.add("max_information", bound.nats, "nats")
        env.add("max_information_bits", bound.bits, "bits")
        env.add("wavelength", bound.wavelength, "m")
        if bound.subwavelength:
            env.warn("antenna radius below the carrier wavelength; the area law assumes radius >> wavelength")
    return env


def _handle_compute_bound(args) -> Envelope:
    env = Envelope("compute-bound")
    env.add_input("power", args.power, "W")
    env.add_input("noise_temp", args.noise_temp, "K")
    env.add_input("margin", args.margin, "dimensionless")
    env.add("max_rate", bounds.max_computing_rate(args.power, args.noise_temp, args.margin), "bit/s")
    return env


#: The keys a clausius ledger may have; a misspelt key is an error, never ignored.
_LEDGER_KEYS = ("delta_S", "heat_terms", "info_term", "tolerance")


def _ledger_number(value, field: str):
    """A ledger field that must be a finite JSON number; returned unchanged."""
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        finite = False
    if not finite:
        raise DomainError(f"ledger {field} must be a finite number, got {value!r}")
    return value


def _handle_clausius(args) -> Envelope:
    env = Envelope("clausius")
    source = "<stdin>" if args.ledger == "-" else args.ledger
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
    heat_terms = payload.get("heat_terms", [])
    if not isinstance(heat_terms, list) or not all(isinstance(t, list) and len(t) == 2 for t in heat_terms):
        raise DomainError(f"ledger heat_terms must be a list of [heat, temperature] pairs, got {heat_terms!r}")
    tolerance = payload.get("tolerance")
    ledger = bounds.clausius_check(
        delta_s=float(_ledger_number(payload["delta_S"], "delta_S")),
        heat_terms=[(_ledger_number(q, "heat term"), _ledger_number(t, "heat-term temperature"))
                    for q, t in heat_terms],
        info_term=float(_ledger_number(payload.get("info_term", 0.0), "info_term")),
        tolerance=None if tolerance is None else _ledger_number(tolerance, "tolerance"),
    )
    env.add_input("ledger", source, "path")
    env.add_results(ledger)
    return env


def _handle_simulate(args) -> Envelope:
    from . import mcsim  # here, so that the calculator commands never import numpy

    env = Envelope("simulate")
    env.add_input("L", args.L, "count")
    env.add_input("t_hot", args.t_hot, "K")
    env.add_input("t_cold", args.t_cold, "K")
    env.add_input("epsilon", args.epsilon, "J")
    env.add_input("steps", args.steps, "count")
    env.add_input("seed", args.seed, "count")
    if args.ensemble is None:
        led = mcsim.simulate_transfer(args.L, args.t_hot, args.t_cold, args.epsilon, args.steps, args.seed)
        env.add_results(led)
    else:
        env.add_input("ensemble", args.ensemble, "count")
        seeds = range(args.seed, args.seed + args.ensemble)
        ledgers = mcsim.run_ensemble(args.L, args.t_hot, args.t_cold, args.epsilon, args.steps, seeds)
        fields = _reported_fields(mcsim.SimLedger)
        env.add("runs", [{name: getattr(led, name) for name, _ in fields} for led in ledgers])
        summary = mcsim.ensemble_summary(ledgers)
        summary["run_count"] = summary.pop("runs")
        for name, value in summary.items():
            unit = "J/K" if "entropy" in name else ("J" if "heat" in name else "count")
            env.add(name, value, unit)
    return env


# --------------------------------------------------------------------------
# parser


def _add_format_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit a JSON envelope (default: text)")
    group.add_argument("--csv", action="store_true", help="emit CSV: header row then data rows (default: text)")


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
    fmt = argparse.ArgumentDefaultsHelpFormatter

    gas = sub.add_parser("gas", help="two-level gas calculator", formatter_class=fmt)
    gas_sub = gas.add_subparsers(dest="gas_action", required=True)
    for name, desc in (
        ("temperature", "equilibrium temperature from (L, p, epsilon)"),
        ("entropy", "exact and Stirling entropy of (L, p)"),
        ("occupation", "equilibrium mean ones count at temperature T"),
        ("transfer", "hot->cold transfer entropy ledger"),
        ("state", "full derived state for (L, p, epsilon)"),
    ):
        p = gas_sub.add_parser(name, help=desc, formatter_class=fmt)
        _add_format_flags(p)
        p.add_argument("--L", type=_count, required=True, help="number of sites [count]")
        if name in ("temperature", "entropy", "state"):
            p.add_argument("--p", type=_count, required=True, help="number of excited sites [count]")
        if name == "occupation":
            p.add_argument("--T", type=float, required=True, help="temperature [K]")
        if name == "transfer":
            p.add_argument("--p-hot", dest="p_hot", type=_count, required=True, help="hot-side excited count [count]")
            p.add_argument("--p-cold", dest="p_cold", type=_count, required=True, help="cold-side excited count [count]")
        if name != "entropy":
            p.add_argument("--epsilon", type=float, required=True, help="energy of an excited site [J]")

    file_p = sub.add_parser("file", help="binary-file thermodynamics", formatter_class=fmt)
    file_sub = file_p.add_subparsers(dest="file_action", required=True)
    analyze = file_sub.add_parser("analyze", help="full report for a file or stdin", formatter_class=fmt)
    _add_format_flags(analyze)
    analyze.add_argument("--epsilon", type=float, required=True, help="energy assigned to a one bit [J]")
    analyze.add_argument("--block-k", dest="block_k", type=_count, default=fileinfo.DEFAULT_BLOCK_BITS,
                         help="block size for block entropy [bit]")
    analyze.add_argument("--path", default=None, help="input file (default: read stdin)")

    bc = sub.add_parser("broadcast", help="broadcast thermodynamics", formatter_class=fmt)
    bc_sub = bc.add_subparsers(dest="broadcast_action", required=True)

    rng_p = bc_sub.add_parser("range", help="maximum broadcast range", formatter_class=fmt)
    _add_format_flags(rng_p)
    rng_p.add_argument("--power", type=float, required=True, help="radiated power [W]")
    rng_p.add_argument("--bit-rate", dest="bit_rate", type=float, required=True, help="bit rate [bit/s]")
    rng_p.add_argument("--carrier", type=float, default=None, help="carrier frequency [Hz] (default: bit rate)")
    rng_p.add_argument("--area", type=float, default=None, help="receiver area [m^2] (overrides --area-mode)")
    rng_p.add_argument("--area-mode", dest="area_mode", choices=["wavelength-squared", "wavelength-squared-over-100"],
                       default="wavelength-squared", help="receiver area preset [m^2]")
    rng_p.add_argument("--noise-temp", dest="noise_temp", type=float, default=300.0, help="noise temperature [K]")
    rng_p.add_argument("--margin", type=float, default=10.0, help="SNR safety factor [dimensionless]")
    rng_p.add_argument("--criterion", choices=list(broadcast.RANGE_CRITERIA), default="bit-energy",
                       help="detection criterion [mode]")

    temp_p = bc_sub.add_parser("temperature", help="transmitter/receiver temperatures", formatter_class=fmt)
    _add_format_flags(temp_p)
    temp_p.add_argument("--power", type=float, required=True, help="radiated power [W]")
    temp_p.add_argument("--bit-rate", dest="bit_rate", type=float, required=True, help="bit rate [bit/s]")
    temp_p.add_argument("--carrier", type=float, default=None, help="carrier frequency [Hz] (default: bit rate)")
    temp_p.add_argument("--distance", type=float, default=None, help="receiver distance [m] (optional)")
    temp_p.add_argument("--area", type=float, default=None, help="receiver area [m^2] (overrides --area-mode)")
    temp_p.add_argument("--area-mode", dest="area_mode", choices=["wavelength-squared", "wavelength-squared-over-100"],
                        default="wavelength-squared", help="receiver area preset [m^2]")

    bal_p = bc_sub.add_parser("balance", help="N-receiver entropy balance", formatter_class=fmt)
    _add_format_flags(bal_p)
    info_group = bal_p.add_mutually_exclusive_group(required=True)
    info_group.add_argument("--info-nats", dest="info_nats", type=float, default=None, help="file information [nats]")
    info_group.add_argument("--info-bits", dest="info_bits", type=float, default=None, help="file information [bits]")
    bal_p.add_argument("--receivers", type=_count, required=True, help="number of receivers [count]")

    cap_p = bc_sub.add_parser("capacity", help="area-law maximum broadcast information", formatter_class=fmt)
    _add_format_flags(cap_p)
    cap_p.add_argument("--bit-rate", dest="bit_rate", type=float, required=True, help="bit rate [bit/s]")
    cap_p.add_argument("--carrier", type=float, required=True, help="carrier frequency [Hz]")
    cap_p.add_argument("--radius", type=float, required=True, help="antenna radius [m]")
    cap_p.add_argument("--duration", type=float, default=1.0, help="broadcast duration [s]")

    cb = sub.add_parser("compute-bound", help="computing-rate bound", formatter_class=fmt)
    _add_format_flags(cb)
    cb.add_argument("--power", type=float, required=True, help="dissipated power [W]")
    cb.add_argument("--noise-temp", dest="noise_temp", type=float, default=300.0, help="ambient noise temperature [K]")
    cb.add_argument("--margin", type=float, default=10.0, help="operating margin over noise [dimensionless]")

    cl = sub.add_parser("clausius", help="check an entropy ledger", formatter_class=fmt)
    _add_format_flags(cl)
    cl.add_argument("--ledger", default="-",
                    help='JSON ledger path, or "-" for stdin; keys: delta_S [J/K], heat_terms [[J, K]...], '
                         "info_term [nats], tolerance [J/K]")

    sim = sub.add_parser("simulate", help="hot->cold transfer simulation", formatter_class=fmt)
    _add_format_flags(sim)
    sim.add_argument("--L", type=_count, required=True, help="number of sites [count]")
    sim.add_argument("--t-hot", dest="t_hot", type=float, required=True, help="hot bath temperature [K]")
    sim.add_argument("--t-cold", dest="t_cold", type=float, required=True, help="cold bath temperature [K]")
    sim.add_argument("--epsilon", type=float, required=True, help="energy of an excited site [J]")
    sim.add_argument("--steps", type=_count, default=None,
                     help="Metropolis steps [count] (default: 100 * L)")
    sim.add_argument("--seed", type=_count, default=0, help="RNG seed [count]")
    sim.add_argument("--ensemble", type=_count, default=None,
                     help="run this many seeds starting at --seed and summarize [count]")

    sweep = sub.add_parser(
        "sweep",
        help="iterate one numeric flag of another subcommand over a range; emits CSV",
        formatter_class=fmt,
    )
    sweep.add_argument("--param", required=True, help="flag name to sweep, without dashes (e.g. epsilon)")
    sweep.add_argument("--start", type=float, required=True, help="first value [unit of the swept flag]")
    sweep.add_argument("--stop", type=float, required=True, help="last value [unit of the swept flag]")
    sweep.add_argument("--count", type=_count, required=True, help="number of points [count]")
    sweep.add_argument("--log", action="store_true", help="space points geometrically instead of linearly")
    sweep.add_argument("target", nargs=argparse.REMAINDER,
                       help="target subcommand and its fixed flags (prefix with --)")
    return parser


_HANDLERS = {
    "gas": _handle_gas,
    "file": _handle_file,
    "broadcast": _handle_broadcast,
    "compute-bound": _handle_compute_bound,
    "clausius": _handle_clausius,
    "simulate": _handle_simulate,
}


def _execute(args) -> Envelope:
    if args.command == "simulate" and args.steps is None:
        args.steps = 100 * args.L
    return _HANDLERS[args.command](args)


#: Bytes a sweep keeps per point, rounded up: its value and its CSV row
#: (about 1.2 KB measured for the widest row, a simulate ledger).
_SWEEP_POINT_BYTES = 2048


def _sweep_values(args) -> list[float]:
    if args.count < 1:
        raise DomainError(f"sweep count must be >= 1, got {args.count}")
    require_within_budget(args.count * _SWEEP_POINT_BYTES, f"a sweep of {args.count} points")
    if args.count == 1:
        return [args.start]
    if args.log:
        if args.start <= 0 or args.stop <= 0:
            raise DomainError("logarithmic sweeps need positive start and stop")
        ratio = (args.stop / args.start) ** (1.0 / (args.count - 1))
        values = [args.start * ratio**i for i in range(args.count)]
    else:
        step = (args.stop - args.start) / (args.count - 1)
        values = [args.start + step * i for i in range(args.count)]
    return sorted(values)


def _handle_sweep(args, parser: argparse.ArgumentParser, stream) -> None:
    target = list(args.target)
    if target and target[0] == "--":
        target = target[1:]
    if not target:
        parser.error("sweep needs a target subcommand after the sweep flags")
    if target[0] == "sweep":
        parser.error("sweep cannot target itself")
    flag = "--" + args.param.lstrip("-").replace("_", "-")
    rows = []
    header: list[str] | None = None
    for value in _sweep_values(args):
        sub_args = parser.parse_args(target + [flag, repr(value)])
        env = _execute(sub_args)
        scalars = {k: v for k, v in env.results.items() if not isinstance(v, _COMPOUND)}
        if header is None:
            header = [args.param] + list(scalars)
        rows.append([_format_scalar(value)] + [_format_scalar(scalars.get(k)) for k in header[1:]])
    writer = csv_module.writer(stream, lineterminator="\n")
    writer.writerow(header or [args.param])
    writer.writerows(rows)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = os.environ.get(FORMAT_ENV_VAR, "text")
    if fmt not in _FORMATS:
        fmt = "text"
    if getattr(args, "json", False):
        fmt = "json"
    elif getattr(args, "csv", False):
        fmt = "csv"
    try:
        if args.command == "sweep":
            _handle_sweep(args, parser, sys.stdout)
            return 0
        env = _execute(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _render(env, fmt, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
