"""infotherm: thermodynamics of bits.

A two-level gas of L sites with p excited "one" states is both a textbook
statistical-mechanics system and, frozen at an instant, a binary file. This
package follows that identification end to end: exact and Stirling gas
entropies and temperatures, byte-level file analysis (energy, information
estimates, effective temperature, incompressibility scoring), broadcast
temperatures and range/information bounds, a Clausius-inequality checker,
and a seed-reproducible Monte Carlo verifier of the second law.

A module loads when it is first needed. Importing the package loads none of
its modules: each public name below is resolved from its home module on
first access (PEP 562), and the CLI imports a library module inside the
handler that uses it. Only the file analysis and the simulation need numpy;
``fileinfo`` imports it inside the functions that count and ``mcsim`` at its
top, so a closed-form calculator never loads numpy. ``from infotherm import
*`` binds every name except those of ``mcsim``, so it does not load numpy
either.
"""

__version__ = "0.1.0"

#: Public names by home module, each resolved on first access.
_PUBLIC = {
    "bounds": ("EntropyLedger", "carnot_efficiency", "clausius_check", "max_computing_rate"),
    "broadcast": (
        "BroadcastBalance",
        "BroadcastInformation",
        "LinkBudget",
        "ReceiverTemperature",
        "broadcast_entropy_balance",
        "equivalent_bit_energy",
        "equivalent_power",
        "max_broadcast_information",
        "max_range",
        "receiver_temperature",
        "transmitter_temperature",
    ),
    "errors": (
        "DomainError",
        "EmptyFileError",
        "InvalidDistributionError",
        "InvalidQuantityError",
        "SampleSizeError",
        "UndefinedTemperatureError",
    ),
    "fileinfo": (
        "FileReport",
        "analyze",
        "analyze_counts",
        "block_entropy",
        "compression_information",
        "effective_temperature",
        "equilibrium_score",
        "file_temperature",
        "max_information",
        "shannon_entropy_order0",
    ),
    "lz": (),
    "mcsim": (
        "ConfigDistribution",
        "Configuration",
        "EnsembleSummary",
        "SimLedger",
        "ensemble_summary",
        "h_function",
        "run_ensemble",
        "sample_canonical",
        "sample_equilibrium",
        "simulate_transfer",
    ),
    "quantities": ("C_LIGHT", "K_B", "LN2", "convert_information"),
    "twolevel": (
        "GasSpec",
        "GasState",
        "GasTemperature",
        "TransferLedger",
        "entropy_stirling",
        "gas_state",
        "gas_temperature",
        "multiplicity_ln",
        "occupation_at",
        "transfer_entropy_delta",
    ),
}

#: Public name -> home module; a module is its own home.
_HOME = {**{module: module for module in _PUBLIC}, **{n: module for module, names in _PUBLIC.items() for n in names}}

#: What ``from infotherm import *`` binds: all but ``mcsim`` and its names, which would load numpy.
__all__ = sorted(name for name, module in _HOME.items() if module != "mcsim")


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # here, not at module level, where dir() would list it

    # import_module, not ``from . import``: the latter probes this package's
    # attributes and would re-enter this hook. Importing a submodule binds it
    # here; a name is bound once resolved, so later lookups skip this hook.
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
