"""Filtered-derivative change-point analysis for renewal point processes.

The package simulates renewal processes with an optional rate/variance
change point, computes windowed filtered-derivative statistics under
known and estimated scaling, evaluates the closed-form theory of the
statistic near a change point (hat and fin shaped systematic deviation,
estimation distortion, detection-probability bound), simulates the
Gaussian limit process, runs the Monte-Carlo thresholded multiple-filter
test with successive-argmax change-point estimation, and ships an
empirical verification lab for the convergence statements.
"""

from .detector import (ChangePointEstimate, DetectionResult, ThresholdTable,
                       detect, estimate_change_points, merge_across_windows,
                       simulate_threshold, threshold_cache_key)
from .filtered import (D_process, G_process, Gamma_process, WindowEstimateSeries,
                       s_hat, window_estimate_series)
from .lab import (LabReport, check_H0_limit, check_alternative_limit,
                  check_estimator_consistency, check_window_lln,
                  check_window_variance_forms, ks_critical_2samp,
                  ks_critical_normal, ks_statistic_2samp, ks_statistic_normal,
                  run_verification_suite)
from .presets import (DISTORTION_A, DISTORTION_B, ORIENTATION_MODELS,
                      SHARK_EAST, SHARK_EAST_INVERTED, SHARK_WEST,
                      SHARK_WEST_INVERTED)
from .renewal import (ChangePointModel, ConfigurationError, EventSequence,
                      RenewalSpec, WindowConfig, read_event_file,
                      register_sampler, simulate_compound, simulate_renewal,
                      substream, write_event_file)
from .series import StatisticSeries, read_series_csv, write_series_csv
from .theory import (SharkShape, TheoryParams, brownian_blocks, classify_shark,
                     detection_bound, distortion, m_function, mu_le_theory,
                     mu_ri_theory, normal_cdf, s_function, s_tilde, shark_fin,
                     sigma2_le_theory, sigma2_ri_theory, simulate_L_paths)

__version__ = "0.1.0"
