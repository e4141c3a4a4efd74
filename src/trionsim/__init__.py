"""Monte Carlo simulator and analysis chain for a trion spin-photon
interface: four-level optical selection rules, Larmor precession of the
heralded hole spin, photon correlation, and damped-cosine parameter
recovery."""

from .core import (CIRCULAR, MU_B_EV_PER_T, PLANCK_EV_S, DeviceParams,
                   NoiseKind, NoiseModel, NoiseTarget, Pol, SpinHalfState,
                   Subspace, jones_vector, larmor_frequency,
                   larmor_halfperiod, orthogonal, pol_from_label, project,
                   zeeman_splitting)
from .dynamics import (EmissionBranch, Propagator2, addressed_z,
                       cw_branch_contrast, emit_amplitudes, envelope_factor,
                       heralded_docp, lifetime_docp, lifetime_trace,
                       make_propagator, precessed_z, r_probability,
                       rotation_x)
from .montecarlo import (EVENT_DTYPE, EventStream, ProtocolConfig,
                         ProtocolKind, resolve_workers, run)
from .correlator import (DocpTrace, Histogram1D, Map2D, bin_lifetime,
                         build_map2d, correlate_cw, docp,
                         lifetime_docp_trace, plateau_normalized, slice_map,
                         write_docp_csv, write_map_csv)
from .fitkit import (PARAM_NAMES, DampedCosineModel, FitResult,
                     FrequencyEstimate, WindowAverage, ZeemanFit,
                     fft_frequency, fit_damped_cosine, fit_linear_zeeman,
                     format_fit_report, loglog_trend, window_average)
from .events_io import compat_digest, read_events, write_events
from .scenarios import (AnalysisOptions, ConfigError, FitOptions,
                        OutputOptions, Scenario, load_scenario,
                        save_scenario)
from .pipelines import PRESETS, PipelineResult, SummaryRow, run_pipeline
from .rng import derive_seed, substream

__version__ = "0.1.0"
