"""Exact enumeration and generating functions for Dyck-like paths whose
descents may span several levels but never follow one another."""

from .bijections import BlockDecomposition, block_decompose, phi, phi_inv, psi, psi_inv
from .catalog import (
    NamedSeries,
    evaluate,
    gf_dap,
    gf_gdap,
    gf_minorized,
    gf_prefix_negative,
    gf_prefix_positive,
    series_names,
)
from .enumeration import FamilySpec, count_paths, count_paths_upto, enum_compositions, enum_paths, iter_paths
from .oeis import SequenceRecord, align_and_compare, fetch_sequence
from .paths import EMPTY, UD, LatticePath, classify, parse_path
from .series import TruncatedSeries
from .verify import CheckResult, VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BlockDecomposition",
    "CheckResult",
    "EMPTY",
    "FamilySpec",
    "LatticePath",
    "NamedSeries",
    "SequenceRecord",
    "TruncatedSeries",
    "UD",
    "VerificationReport",
    "align_and_compare",
    "block_decompose",
    "classify",
    "count_paths",
    "count_paths_upto",
    "enum_compositions",
    "enum_paths",
    "evaluate",
    "fetch_sequence",
    "gf_dap",
    "gf_gdap",
    "gf_minorized",
    "gf_prefix_negative",
    "gf_prefix_positive",
    "iter_paths",
    "parse_path",
    "phi",
    "phi_inv",
    "psi",
    "psi_inv",
    "run_suite",
    "series_names",
    "__version__",
]
