"""Tests for the synthetic Adults generator (Figure 9, left)."""

import hashlib

import numpy as np
import pytest

from repro.datasets.adults import (
    ADULTS_QI,
    adults_hierarchies,
    adults_problem,
    adults_table,
)


@pytest.fixture(scope="module")
def table():
    return adults_table(num_rows=5_000, seed=7)


class TestSchema:
    def test_nine_attributes_in_paper_order(self, table):
        assert table.schema.names == ADULTS_QI
        assert len(ADULTS_QI) == 9

    def test_row_count(self, table):
        assert table.num_rows == 5_000

    def test_default_row_count_is_papers(self):
        # don't generate it here (slow); just check the constant
        from repro.datasets.adults import DEFAULT_ROWS

        assert DEFAULT_ROWS == 45_222


class TestCardinalities:
    """Figure 9's distinct-value counts must be reachable (and capped)."""

    @pytest.mark.parametrize(
        "attribute,expected",
        [
            ("age", 74),
            ("gender", 2),
            ("race", 5),
            ("marital_status", 7),
            ("education", 16),
            ("native_country", 41),
            ("work_class", 7),
            ("occupation", 14),
            ("salary_class", 2),
        ],
    )
    def test_cardinality_matches_figure9(self, table, attribute, expected):
        assert table.column(attribute).cardinality == expected

    def test_age_range(self, table):
        ages = table.column("age").to_list()
        assert min(ages) == 17
        assert max(ages) == 90


class TestHierarchies:
    """Figure 9's hierarchy heights: 4,1,1,2,3,2,2,2,1."""

    @pytest.mark.parametrize(
        "attribute,height",
        [
            ("age", 4),
            ("gender", 1),
            ("race", 1),
            ("marital_status", 2),
            ("education", 3),
            ("native_country", 2),
            ("work_class", 2),
            ("occupation", 2),
            ("salary_class", 1),
        ],
    )
    def test_heights(self, attribute, height):
        assert adults_hierarchies()[attribute].height == height

    def test_age_ranges(self):
        hierarchy = adults_hierarchies()["age"]
        assert hierarchy.generalize(37, 1) == "[35-40)"
        assert hierarchy.generalize(37, 2) == "[30-40)"
        assert hierarchy.generalize(37, 3) == "[20-40)"
        assert hierarchy.generalize(37, 4) == "*"

    def test_education_taxonomy(self):
        hierarchy = adults_hierarchies()["education"]
        assert hierarchy.generalize("Masters", 1) == "Postgraduate"
        assert hierarchy.generalize("Masters", 3) == "*"

    def test_every_generated_value_is_in_its_hierarchy(self, table):
        hierarchies = adults_hierarchies()
        for name in ADULTS_QI:
            hierarchy = hierarchies[name]
            compiled = hierarchy.compile(table.column(name).values)
            assert compiled.cardinality(hierarchy.height) == 1


class TestDeterminism:
    def test_same_seed_same_table(self):
        assert adults_table(500, seed=3) == adults_table(500, seed=3)

    def test_different_seed_differs(self):
        assert adults_table(500, seed=3) != adults_table(500, seed=4)

    def test_invalid_rows(self):
        with pytest.raises(ValueError):
            adults_table(0)


#: sha256 over each column's int32 codes followed by ``repr(values)``,
#: recorded from the row-at-a-time generator that decoded every draw to
#: a Python value and encoded it again.  Codes, value order and value
#: types must all stay as they were.
COLUMN_DIGESTS = {
    (7, 45_222): {
        "age": "d27913e2908e7ec1117be33779082e3b149a20ec9c15dd366e857e1f2eb7af9b",
        "gender": "1ca031edfdc049831e63e37680332361dd01334d99d2ec18a0700f4b80520a23",
        "race": "0766fd14026b615a08032d2ddb64df08e7090749aad00801539752b88bfb41c1",
        "marital_status": "b67a3791cd52e48a2ba914ca07665caf688d5d75214e81dcfdaf4b20b961b201",
        "education": "860b6d00e02810f443faf0daeff83193bd3b7c2150faabf500bb27e2b180285d",
        "native_country": "23d73d0cfc076bc3bd61e7b28548907946c178d236e7afb12e14752a00bb2849",
        "work_class": "cec7231709d675dfd07d1b7d6f835ba054888cca22821985de43096b71e44f7c",
        "occupation": "95ae70d1b159d5669979c7a18c26b14e4138d96a563d9d8e11a218794d139e95",
        "salary_class": "3647b75a855f240d88e421ebf978f6f7af90a18a99a8afd4ebdc8031f7a6a4a8",
    },
    (7, 20_000): {
        "age": "e032cb46e80e559accca0ad4049c358945703d761af6bbcd287e1068959e5731",
        "gender": "6f445fb2ad37d5a616e7b4ede3c53bb2f6b6300feb89b5ece1ef599138a4012b",
        "race": "ef4537b12368bf6dabb75474be3e764b50cb9ab5efe2cb4463a1c336ca2fb23e",
        "marital_status": "e39e35284562dddc8fca86ed535299dab216083eeea2f3895029d490564e280a",
        "education": "7f16339c458b0575bc995db9e70241f768bb3cf2a256c6afaf784b534561d1e1",
        "native_country": "fca60ad710b02b4cf1b4da5d63538d3ad8bc00c9f58c77264b4c05fa281acffd",
        "work_class": "fc357c1f05ce96913536cc26bb292dd1b42022bf9ccfcc0e277a7c286a2baa2c",
        "occupation": "e6e866f6b5ab4605de0c6c629e397c0a4eae46e33e39761332db2db90ae2fb28",
        "salary_class": "9640df6afa11328fee3efe40f834d6c995b5ca2412dfb3dbfbfaa158220bd48e",
    },
    (1, 45_222): {
        "age": "69d84b4d21b19640775a3036eeb081b8ba7f40f08d3f4072056114412767c9f8",
        "gender": "179e68f4ea16cf328d257c1d06fa9cc1e7a532fb6082533425f68f8b315ab12b",
        "race": "88ecd180050e6b9bcd31bd9aae8083a61081b2cf178c633ccb2f27370b5cf660",
        "marital_status": "62261c54bc832f3f5616dc2271163788697fad7b69e33d2e36e562c7761eb128",
        "education": "0a7e591511fbae889b80f00b164d5bf77a2fd97f12c869835383390023cabbf6",
        "native_country": "eeb6ecb3073f664cd6de10110534f8307274236e599856c0449758160610d348",
        "work_class": "9371f1f64711e4a79c05b560104f9c154b617b1816fbf2d911cf3b4582a5f98b",
        "occupation": "c5525c16389ee739e172b647e5a4320ebadc99d8b39c69ca5ed82f0927ca1665",
        "salary_class": "6b5a2d8facdc39c1d884cd526ff42127eb103b3675dc2a9f9d7b8df49ad55b59",
    },
}


class TestBitIdentity:
    @pytest.mark.parametrize("seed,rows", sorted(COLUMN_DIGESTS))
    def test_columns_match_recorded_digests(self, seed, rows):
        table = adults_table(rows, seed=seed)
        digests = {}
        for name in ADULTS_QI:
            column = table.column(name)
            payload = np.asarray(column.codes, dtype=np.int32).tobytes()
            payload += repr(column.values).encode()
            digests[name] = hashlib.sha256(payload).hexdigest()
        assert digests == COLUMN_DIGESTS[(seed, rows)]


class TestProblem:
    def test_qi_prefix(self):
        problem = adults_problem(1_000, qi_size=4)
        assert problem.quasi_identifier == ADULTS_QI[:4]

    def test_qi_size_bounds(self):
        with pytest.raises(ValueError):
            adults_problem(100, qi_size=0)
        with pytest.raises(ValueError):
            adults_problem(100, qi_size=10)
