"""The package's public names, pinned.

`subspace_lrc.__all__` is every public name the package imports, so a name
added or removed there is a library API change: update PUBLIC below and say
so in the change log. The README "Library" example must keep importing.
"""

import ast
import re
from pathlib import Path

import subspace_lrc

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC = [
    "AmbientMismatch", "ArrayCode", "AvailabilityResult", "BadParams", "Check", "CodeReport",
    "DimensionMismatch", "DimensionTooLarge", "DivisionByZero", "DuplicateBlock", "ExtensionContext",
    "FieldContext", "Inconsistent", "LocalityProfile", "Mat", "MixedDimensions", "NoRecovery",
    "NotDivisible", "NotPrime", "OrderTooLarge", "OutOfRange", "PairingResult", "RecoverySet",
    "RepairResult", "SpreadDesign", "Subspace", "SubspaceCodeError", "TooLarge", "TransversalDesign",
    "VerificationSuite", "analyze_code", "arraycode", "build_spread", "build_std", "code_from_subspaces",
    "construction_all_subspaces", "construction_from_blocks", "construction_spread", "construction_std",
    "designs", "dual", "dual_distance_by_supports", "encode", "enumerate_grassmannian", "errors",
    "evaluate_recovery", "extension_new", "field_from_order", "field_new", "format_bundle",
    "format_matrix", "gaussian", "gaussian_or_zero", "gf", "grassmann_pairing", "is_mds", "limits",
    "linalg", "locality", "locality_profile", "max_disjoint_packing", "min_distance", "min_node_recovery",
    "null_space", "parse_bundle", "parse_field", "parse_matrix", "perfectness", "read_bundle", "repair",
    "run_verification", "solve", "steiner_parameters", "subspace_sum", "verification",
    "verify_all_subspaces", "verify_blocks", "verify_spread", "verify_spread_code", "verify_std",
    "verify_std_full", "verify_std_par", "weight", "weight_distribution", "write_bundle",
]


def test_public_names_are_pinned():
    assert sorted(subspace_lrc.__all__) == PUBLIC


def library_example_imports():
    """The names the README "Library" example imports from the package."""
    section = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "subspace_lrc"
        for alias in node.names
    ]


def test_library_example_names_import():
    names = library_example_imports()
    assert names, "the README Library example imports nothing from subspace_lrc"
    for name in names:
        assert name in subspace_lrc.__all__
        getattr(subspace_lrc, name)
