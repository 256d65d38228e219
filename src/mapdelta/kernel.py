"""The selection-scan kernel: the compiled `_scan` when it is built, else
its pure-Python twin `_scan_py`."""

try:
    from . import _scan as scan  # type: ignore[attr-defined]
except ImportError:
    from . import _scan_py as scan

survey_selections = scan.survey_selections
IS_COMPILED = scan.IS_COMPILED
