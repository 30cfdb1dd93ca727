"""infotherm: thermodynamics of bits.

A two-level gas of L sites with p excited "one" states is both a textbook
statistical-mechanics system and, frozen at an instant, a binary file. This
package follows that identification end to end: exact and Stirling gas
entropies and temperatures, byte-level file analysis (energy, information
estimates, effective temperature, incompressibility scoring), broadcast
temperatures and range/information bounds, a Clausius-inequality checker,
and a seed-reproducible Monte Carlo verifier of the second law.

Only the file analysis and the simulation need numpy. ``mcsim`` and its
names below are loaded on first access (PEP 562), and ``fileinfo`` imports
numpy inside the functions that count, so importing the package or running a
closed-form calculator never loads numpy.
"""

from .bounds import (
    EntropyLedger,
    carnot_efficiency,
    clausius_check,
    max_computing_rate,
)
from .broadcast import (
    BroadcastBalance,
    BroadcastInformation,
    LinkBudget,
    ReceiverTemperature,
    broadcast_entropy_balance,
    equivalent_bit_energy,
    equivalent_power,
    max_broadcast_information,
    max_range,
    receiver_temperature,
    transmitter_temperature,
)
from .errors import (
    DomainError,
    EmptyFileError,
    InvalidDistributionError,
    InvalidQuantityError,
    SampleSizeError,
    UndefinedTemperatureError,
)
from .fileinfo import (
    FileReport,
    analyze,
    analyze_counts,
    block_entropy,
    compression_information,
    effective_temperature,
    equilibrium_score,
    file_temperature,
    max_information,
    shannon_entropy_order0,
)
from .quantities import C_LIGHT, K_B, LN2, convert_information
from .twolevel import (
    GasSpec,
    GasState,
    GasTemperature,
    TransferLedger,
    entropy_stirling,
    gas_state,
    gas_temperature,
    multiplicity_ln,
    occupation_at,
    transfer_entropy_delta,
)

__version__ = "0.1.0"

#: Public names of :mod:`infotherm.mcsim`, resolved on first access.
_MCSIM_NAMES = (
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
)


def __getattr__(name):
    if name == "mcsim" or name in _MCSIM_NAMES:
        import importlib

        # import_module, not ``from . import``: the latter probes this
        # package's attributes and would re-enter this hook.
        mcsim = importlib.import_module(f"{__name__}.mcsim")
        return mcsim if name == "mcsim" else getattr(mcsim, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "mcsim", *_MCSIM_NAMES})
