"""The library's input checks that no other test reaches: each bad input
raises its own exception type with its own message."""

import pytest

from clasptools.census import CensusError, load_census
from clasptools.clasp import enumerate_params, typeX_sum_of_squares_search
from clasptools.diagram import Diagram, DiagramError, parse_pd
from clasptools.laurent import UNLINK_FACTOR, LaurentPoly, extract_p_i
from clasptools.openbook import s3_openbook_report
from clasptools.skein import SkeinEngine
from clasptools.tangle import ExtendedRational, MontesinosDesc, theorem1_catalog

TREFOIL = "PD[X[1,5,2,4],X[3,1,4,6],X[5,3,6,2]]"
V4 = LaurentPoly.term(1, ev=4)


def _census(tmp, text):
    path = tmp / "census.tsv"
    path.write_text(text)
    return load_census(str(path))


# (id, call on a temporary directory, exception type, message with {tmp}).
CASES = [
    ("census-columns", lambda tmp: _census(tmp, f"3_1\t1\t{TREFOIL}\n"),
     CensusError, "{tmp}/census.tsv:1: expected `name<TAB>PD[...]`"),
    ("census-missing", lambda tmp: load_census(str(tmp / "missing.tsv")),
     CensusError, "census file not found: {tmp}/missing.tsv"),
    ("diagram-three-labels", lambda tmp: Diagram([(1, 2, 3)]),
     DiagramError, "crossing (1, 2, 3) does not have four edge labels"),
    ("smooth-past-the-end", lambda tmp: parse_pd(TREFOIL).smooth_crossing(3),
     IndexError, "crossing index out of range"),
    ("smooth-negative", lambda tmp: parse_pd(TREFOIL).smooth_crossing(-1),
     IndexError, "crossing index out of range"),
    ("pd-no-comma", lambda tmp: parse_pd("PD[X[1,2,2,1]U]"),
     DiagramError, "expected ',' at 'U'"),
    ("params-negative-bound", lambda tmp: enumerate_params(2, 1, "II", -1),
     ValueError, "bound must be nonnegative"),
    ("params-disk-type", lambda tmp: enumerate_params(2, 1, "Y", 3),
     ValueError, "disk type must be 'X' or 'II'"),
    ("squares-signs", lambda tmp: typeX_sum_of_squares_search(V4, 1, 0),
     ValueError, "signs must be +1 or -1"),
    ("squares-z-term", lambda tmp: typeX_sum_of_squares_search(
        V4 + LaurentPoly.term(1, ev=0, ez=2), 1, 1),
     ValueError, "p0 must be a v-only polynomial"),
    ("laurent-negative-power", lambda tmp: V4 ** -1,
     ValueError, "only nonnegative powers are supported"),
    ("laurent-substitute", lambda tmp: V4.substitute_v(2),
     ValueError, "v can only be specialized to +1 or -1"),
    ("p-i-no-component", lambda tmp: extract_p_i(V4, 0, 0),
     ValueError, "a link has at least one component"),
    ("p-i-negative-index", lambda tmp: extract_p_i(V4, 1, -1),
     ValueError, "coefficient index must be nonnegative"),
    ("p-i-odd-z", lambda tmp: extract_p_i(UNLINK_FACTOR, 1, 0),
     ValueError, "normalized polynomial has odd or negative z-exponents; "
     "not a 1-component HOMFLY polynomial"),
    ("openbook-report-bound", lambda tmp: s3_openbook_report(0),
     ValueError, "bound must be >= 1"),
    ("homfly-empty", lambda tmp: SkeinEngine().homfly(Diagram(())),
     ValueError, "empty diagram has no invariants"),
    ("infinity-as-fraction", lambda tmp: ExtendedRational(1, 0).as_fraction(),
     ValueError, "infinity has no rational value"),
    ("montesinos-two-entries", lambda tmp: MontesinosDesc.parse("1,2"),
     ValueError, "expected three comma-separated fractions"),
    ("catalog-negative-bound", lambda tmp: theorem1_catalog(-1, load_census(), []),
     ValueError, "n_bound must be nonnegative"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_input_check(tmp_path, call, error, message):
    with pytest.raises(error) as info:
        call(tmp_path)
    assert type(info.value) is error
    assert str(info.value) == message.format(tmp=tmp_path)
