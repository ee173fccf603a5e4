"""The package's lazily resolved names and its immutable record types."""

import importlib
import re

import pytest

import hitcalc
from hitcalc.budget import DEFAULT_BUDGET, HEAVY_BUDGET
from hitcalc.cli import main
from hitcalc.glrep import CoinvariantReport, GLMatrix, parse_glmatrix
from hitcalc.hit import CohitBasis
from hitcalc.homology import PrimitiveBasis
from hitcalc.reports import VerdictReport
from hitcalc.store import CacheEntry
from hitcalc.transfer import TransferImage, TransferReport

# The names the package exports, by module.
EXPORTS = {
    "budget": ("BudgetError", "DEFAULT_BUDGET", "HEAVY_BUDGET"),
    "gf2": ("EchelonBasis", "quotient_representatives"),
    "glrep": (
        "CoinvariantReport", "GLMatrix", "coinvariant_class_nonzero",
        "coinvariant_classes", "generators", "invariant_basis", "parse_glmatrix",
    ),
    "hit": (
        "CohitBasis", "cohit_basis", "cohit_dim", "hit_basis",
        "kameko_iso_applicable", "reduce_degree_chain",
    ),
    "homology": (
        "DElement", "DMonomial", "PrimitiveBasis", "dual_sq", "pair",
        "parse_delement", "parse_dmonomial", "primitive_basis", "zeta_element",
    ),
    "lambda_algebra": (
        "LambdaElement", "LambdaWord", "TerminationGuardError", "differential",
        "homology_dim", "is_boundary", "normal_form", "parse_lambda_element",
    ),
    "steenrod": (
        "Monomial", "Polynomial", "alpha", "generic_degree", "mu",
        "parse_monomial", "parse_polynomial", "sq",
    ),
    "transfer": (
        "TransferImage", "TransferReport", "class_equal", "label_dictionary", "psi",
        "transfer_report",
    ),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]

RECORDS = [
    GLMatrix, CoinvariantReport, CohitBasis, PrimitiveBasis, VerdictReport, CacheEntry, TransferImage, TransferReport,
]


class TestLazyPackage:
    def test_all_lists_every_exported_name(self):
        assert len(NAMES) == 49
        assert sorted(hitcalc.__all__) == sorted(name for _, name in NAMES)
        assert set(hitcalc.__all__) <= set(dir(hitcalc))

    @pytest.mark.parametrize("module, name", NAMES, ids=[n for _, n in NAMES])
    def test_name_resolves_to_its_module_object(self, module, name):
        defined = getattr(importlib.import_module(f"hitcalc.{module}"), name)
        assert getattr(hitcalc, name) is defined

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from hitcalc import *", namespace)
        for module, name in NAMES:
            assert namespace[name] is getattr(
                importlib.import_module(f"hitcalc.{module}"), name
            )

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            hitcalc.no_such_name  # noqa: B018


class TestRecords:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.__name__)
    def test_fields_cannot_be_assigned(self, record):
        # a GLMatrix must be invertible; the others take any placeholder values
        if record is GLMatrix:
            value = parse_glmatrix("10;01")
        else:
            value = record._make(range(len(record._fields)))
        with pytest.raises(AttributeError):
            setattr(value, record._fields[0], 1)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_defaults(self):
        assert DEFAULT_BUDGET == 512 * 1024 * 1024
        assert HEAVY_BUDGET == 32 * 1024 * 1024 * 1024
        assert VerdictReport("x", 1, 2, 3, 3, True).to_dict() == {
            "claim": "x",
            "n": 1,
            "d": 2,
            "expected": 3,
            "computed": 3,
            "pass": True,
            "representatives": [],
            "timing_ms": 0.0,
        }


# --json reports as written before the records became named tuples; a
# verify report's timing is blanked
TRANSFER_3_8 = """[
  {
    "claim": "transfer:n=3,d=8",
    "n": 3,
    "d": 8,
    "expected": 1,
    "computed": 1,
    "pass": true,
    "representatives": [
      {
        "d_element": "(3).(3).(2)+(3).(4).(1)+(5).(2).(1)+(6).(1).(1)",
        "lambda_element": "3,3,2",
        "cycle": true,
        "label": null
      }
    ],
    "timing_ms": 0.0
  }
]"""
COR22_23 = """[
  {
    "claim": "cor2.2:d=23",
    "n": 4,
    "d": 23,
    "expected": 1,
    "computed": 1,
    "pass": true,
    "representatives": [
      {
        "d_element": "(15).(3).(3).(2)+(15).(3).(4).(1)+(15).(5).(2).(1)+(15).(6).(1).(1)",
        "lambda_element": "7,7,5,4",
        "cycle": true,
        "label": "h_4c_0"
      }
    ],
    "timing_ms": T
  }
]"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        ("--json transfer -n 3 -d 8", TRANSFER_3_8),
        ("--json verify cor22 -t 1 -s 2 -u 1", COR22_23),
    ],
)
def test_json_report_bytes(argv, expected, capsys):
    assert main(["--no-cache", *argv.split()]) == 0
    out = capsys.readouterr().out
    if "verify" in argv:
        out = re.sub(r'"timing_ms": [0-9.]+\n', '"timing_ms": T\n', out)
    assert out == expected
