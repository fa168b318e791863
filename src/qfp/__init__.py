"""Single-photon interferometer simulator and analysis toolkit for
equality fingerprinting protocols."""

from .classical import (BoundReport, SmpSearchResult, Strategy, breakeven_n,
                        brute_force_smp, full_bound_report,
                        smp_equality_lower_bounds, strategy_space_size)
from .ecc import (Code, CodeKind, as_bits, bits_to_hex, bits_to_string,
                  encode, hadamard_code, hamming_distance, identity_code,
                  justesen_nu, load_code, min_distance_bruteforce,
                  random_linear_code, repetition_code, save_code)
from .errors import (CodeFormatError, ConfigError, DimensionError,
                     DomainError, NormalizationError, QfpError,
                     ResourceLimitError)
from .physical import (FeasibleD, ImperfectionModel, NoiseRates, PhotonSplit,
                       conditional_error_with_noise, feasible_d,
                       photon_number_distribution)
from .protocol import (BatchResult, ProtocolParams, RunResult, Verdict,
                       amplified_error_bound, batch_report_csv,
                       batch_report_json, exact_report_row,
                       phase_protocol_average_error, phase_protocol_pn,
                       repetitions_needed, run_batch, run_exact,
                       run_sampled)

__version__ = "0.1.0"
