"""The public surface of `import sharkfin`: each name and submodule of the
package namespace, resolved from its module on every access."""

import ast
from pathlib import Path

import pytest

import sharkfin
from sharkfin import detector

# the package's public names, by the module that defines each
PUBLIC = {
    "detector": ["ChangePointEstimate", "DetectionResult", "ThresholdTable", "detect",
                 "estimate_change_points", "merge_across_windows", "simulate_threshold",
                 "threshold_cache_key"],
    "filtered": ["D_process", "G_process", "Gamma_process", "WindowEstimateSeries",
                 "s_hat", "window_estimate_series"],
    "lab": ["LabReport", "check_H0_limit", "check_alternative_limit",
            "check_estimator_consistency", "check_window_lln",
            "check_window_variance_forms", "ks_critical_2samp", "ks_statistic_2samp",
            "run_verification_suite"],
    "presets": ["DISTORTION_A", "DISTORTION_B", "ORIENTATION_MODELS", "SHARK_EAST",
                "SHARK_EAST_INVERTED", "SHARK_WEST", "SHARK_WEST_INVERTED"],
    "renewal": ["ChangePointModel", "ConfigurationError", "EventSequence", "RenewalSpec",
                "WindowConfig", "read_event_file", "simulate_compound",
                "simulate_renewal", "substream", "write_event_file"],
    "series": ["StatisticSeries", "write_series_csv"],
    "theory": ["SharkShape", "TheoryParams", "brownian_blocks", "classify_shark",
               "detection_bound", "distortion", "m_function", "mu_le_theory",
               "mu_ri_theory", "normal_cdf", "s_function", "s_tilde", "shark_fin",
               "sigma2_le_theory", "sigma2_ri_theory", "simulate_L_paths"],
}
NAMES = {*PUBLIC, *(name for names in PUBLIC.values() for name in names)}
# objects of the paper exported for users, which no code of the package calls
UNCALLED_PAPER_OBJECTS = {"D_process", "Gamma_process", "classify_shark",
                          "detection_bound", "ORIENTATION_MODELS"}
ROOT = Path(__file__).resolve().parents[1]


def test_public_names_are_the_modules_objects():
    assert len(NAMES) == 65
    for module_name, names in PUBLIC.items():
        module = getattr(sharkfin, module_name)
        assert module.__name__ == f"sharkfin.{module_name}"
        for name in names:
            assert getattr(sharkfin, name) is getattr(module, name), name


def test_dir_all_and_star_import_list_every_public_name():
    assert set(sharkfin.__all__) == NAMES and len(sharkfin.__all__) == 65
    assert NAMES <= set(dir(sharkfin))
    namespace = {}
    exec("from sharkfin import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES


def referenced_names(path):
    """Names a file reads as a name or an attribute, outside the top-level
    def or class that binds each, and the modules it imports from; the
    strings of `__all__` and `_EXPORTS` are no reference."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.rpartition(".")[2])
        found |= names - {getattr(stmt, "name", None)}
    return found


def test_every_public_name_has_a_caller_in_src_or_bench():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]
    used = set().union(*map(referenced_names, files))
    assert UNCALLED_PAPER_OBJECTS <= NAMES
    assert sorted(NAMES - used - UNCALLED_PAPER_OBJECTS) == []


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sharkfin.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from sharkfin import no_such_name", {})


def test_a_name_patched_in_its_module_is_what_the_package_returns(monkeypatch):
    def fake_detect(*args, **kwargs):
        return None

    real = detector.detect
    monkeypatch.setattr(detector, "detect", fake_detect)
    assert sharkfin.detect is fake_detect
    monkeypatch.undo()
    assert sharkfin.detect is real
    assert "detect" not in vars(sharkfin)
