"""Synthetic stand-in for the UCI Adults census database (Figure 9, left).

The paper's Adults configuration (following Iyengar [11]) uses nine
attributes, all quasi-identifiers, over 45,222 cleaned records.  The real
file is not bundled here, so :func:`adults_table` synthesises a seeded
dataset with the same schema, the same attribute cardinalities, and
census-like marginal skew; :func:`adults_hierarchies` builds hierarchies
with exactly Figure 9's heights:

====  ==============  ===============  =========================
 #    Attribute       Distinct values  Generalizations (height)
====  ==============  ===============  =========================
 1    age             74               5-, 10-, 20-year ranges (4)
 2    gender          2                suppression (1)
 3    race            5                suppression (1)
 4    marital_status  7                taxonomy tree (2)
 5    education       16               taxonomy tree (3)
 6    native_country  41               taxonomy tree (2)
 7    work_class      7                taxonomy tree (2)
 8    occupation      14               taxonomy tree (2)
 9    salary_class    2                suppression (1)
====  ==============  ===============  =========================

Attribute value sets are the published UCI Adult categories, so the
hierarchies are meaningful rather than synthetic tokens.  What the
substitution cannot preserve is the exact joint distribution of the census
sample — Section 1 of DESIGN.md argues why the algorithms' comparative
behaviour does not depend on it.
"""

from __future__ import annotations

import numpy as np

from repro.core.problem import PreparedTable
from repro.hierarchy import (
    Hierarchy,
    RangeHierarchy,
    SuppressionHierarchy,
    TaxonomyHierarchy,
)
from repro.relational.column import Column
from repro.relational.schema import ColumnSpec, ColumnType, Schema
from repro.relational.table import Table

#: Attribute order used by the Figure 10 quasi-identifier-size sweeps.
ADULTS_QI = (
    "age",
    "gender",
    "race",
    "marital_status",
    "education",
    "native_country",
    "work_class",
    "occupation",
    "salary_class",
)

#: The paper's cleaned Adults row count.
DEFAULT_ROWS = 45_222

GENDERS = ("Male", "Female")

RACES = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")

MARITAL_GROUPS = {
    "Married": ("Married-civ-spouse", "Married-AF-spouse", "Married-spouse-absent"),
    "Previously-married": ("Divorced", "Separated", "Widowed"),
    "Never-married": ("Never-married",),
}

EDUCATION_TREE = {
    "*": {
        "Without-higher-degree": {
            "Primary": {"Preschool": {}, "1st-4th": {}, "5th-6th": {}, "7th-8th": {}},
            "Secondary": {
                "9th": {},
                "10th": {},
                "11th": {},
                "12th": {},
                "HS-grad": {},
            },
        },
        "With-higher-education": {
            "Undergraduate": {
                "Some-college": {},
                "Assoc-voc": {},
                "Assoc-acdm": {},
                "Bachelors": {},
            },
            "Postgraduate": {"Masters": {}, "Doctorate": {}, "Prof-school": {}},
        },
    }
}

COUNTRY_GROUPS = {
    "North-America": (
        "United-States", "Canada", "Mexico", "Puerto-Rico", "Cuba",
        "Jamaica", "Haiti", "Dominican-Republic", "Guatemala", "Honduras",
        "El-Salvador", "Nicaragua", "Outlying-US(Guam-USVI-etc)",
        "Trinadad&Tobago",
    ),
    "South-America": ("Columbia", "Ecuador", "Peru"),
    "Europe": (
        "England", "Germany", "France", "Italy", "Poland", "Portugal",
        "Greece", "Ireland", "Scotland", "Yugoslavia", "Hungary", "Holand-Netherlands",
    ),
    "Asia": (
        "India", "China", "Japan", "Philippines", "Vietnam", "Taiwan",
        "Iran", "Cambodia", "Thailand", "Laos", "Hong", "South",
    ),
}

WORK_CLASS_GROUPS = {
    "Private-sector": ("Private",),
    "Self-employed": ("Self-emp-not-inc", "Self-emp-inc"),
    "Government": ("Federal-gov", "Local-gov", "State-gov"),
    "Unpaid": ("Without-pay",),
}

OCCUPATION_GROUPS = {
    "White-collar": (
        "Exec-managerial", "Prof-specialty", "Sales", "Adm-clerical",
        "Tech-support",
    ),
    "Blue-collar": (
        "Craft-repair", "Machine-op-inspct", "Handlers-cleaners",
        "Transport-moving", "Farming-fishing",
    ),
    "Service": ("Other-service", "Protective-serv", "Priv-house-serv"),
    "Military": ("Armed-Forces",),
}

SALARY_CLASSES = ("<=50K", ">50K")

AGE_MIN, AGE_MAX = 17, 90  # 74 distinct ages


def _skewed_probabilities(rng: np.random.Generator, count: int) -> np.ndarray:
    """Zipf-flavoured category popularities (census marginals are skewed)."""
    ranks = np.arange(1, count + 1, dtype=np.float64)
    weights = 1.0 / ranks ** 0.8
    weights = rng.permutation(weights)
    return weights / weights.sum()


def _flatten(groups: dict[str, tuple[str, ...]]) -> list[str]:
    return [leaf for leaves in groups.values() for leaf in leaves]


def _education_leaves() -> list[str]:
    leaves: list[str] = []

    def walk(tree: dict) -> None:
        for name, subtree in tree.items():
            if subtree:
                walk(subtree)
            else:
                leaves.append(name)

    walk(EDUCATION_TREE)
    return leaves


def adults_table(num_rows: int = DEFAULT_ROWS, *, seed: int = 7) -> Table:
    """Generate the synthetic Adults relation (deterministic per seed).

    Marginals are census-like (heavy US-born majority, working-age normal
    for age) and several joints are correlated the way the real extract's
    are — young adults skew never-married, higher education skews
    white-collar occupations and the >50K salary class.  The correlations
    matter for reproducing the paper's search behaviour: they create the
    rare attribute *combinations* whose small counts drive Incognito's
    a-priori pruning.
    """
    if num_rows <= 0:
        raise ValueError(f"num_rows must be positive, got {num_rows}")
    rng = np.random.default_rng(seed)

    # Age: truncated-normal-ish around the US working-age median, then make
    # sure every age in [17, 90] appears at least once (matching the 74
    # distinct values of the real extract) when there is room.
    ages = np.clip(
        np.round(rng.normal(38.5, 13.5, size=num_rows)).astype(np.int64),
        AGE_MIN,
        AGE_MAX,
    )
    all_ages = np.arange(AGE_MIN, AGE_MAX + 1)
    if num_rows >= all_ages.size:
        ages[: all_ages.size] = rng.permutation(all_ages)

    def ensure_full_cardinality(picks: np.ndarray, count: int) -> np.ndarray:
        if num_rows >= count:
            picks[:count] = rng.permutation(count)
        return picks

    def draw(values: list[str]) -> Column:
        probabilities = _skewed_probabilities(rng, len(values))
        picks = rng.choice(len(values), size=num_rows, p=probabilities)
        picks = ensure_full_cardinality(picks, len(values))
        return Column.from_pool(picks, values)

    def draw_country() -> Column:
        """~90% United-States (the real extract's share), skewed tail."""
        countries = _flatten(COUNTRY_GROUPS)
        us = countries.index("United-States")
        tail = _skewed_probabilities(rng, len(countries))
        tail[us] = 0.0
        tail = tail / tail.sum() * 0.105
        probabilities = tail.copy()
        probabilities[us] = 0.895
        picks = rng.choice(len(countries), size=num_rows, p=probabilities)
        picks = ensure_full_cardinality(picks, len(countries))
        return Column.from_pool(picks, countries)

    def draw_marital() -> Column:
        """Correlated with age: the young skew never-married."""
        values = _flatten(MARITAL_GROUPS)
        married = [values.index(v) for v in MARITAL_GROUPS["Married"]]
        previously = [values.index(v) for v in MARITAL_GROUPS["Previously-married"]]
        never = values.index("Never-married")
        picks = np.empty(num_rows, dtype=np.int64)
        young = rng.random(num_rows) < np.clip((45 - ages) / 35, 0.02, 0.95)
        picks[young] = never
        mature = ~young
        widowed_or_married = rng.random(num_rows)
        sub = rng.choice(married, size=num_rows)
        sub_prev = rng.choice(previously, size=num_rows)
        picks[mature] = np.where(
            widowed_or_married[mature] < 0.75, sub[mature], sub_prev[mature]
        )
        picks = ensure_full_cardinality(picks, len(values))
        return Column.from_pool(picks, values)

    def draw_education_occupation_salary() -> tuple[Column, Column, Column]:
        """Jointly draw the three correlated socioeconomic attributes."""
        education_values = _education_leaves()
        occupation_values = _flatten(OCCUPATION_GROUPS)
        white = [occupation_values.index(v) for v in OCCUPATION_GROUPS["White-collar"]]
        other = [
            i for i in range(len(occupation_values)) if i not in white
        ]
        education_probabilities = _skewed_probabilities(rng, len(education_values))
        education_picks = rng.choice(
            len(education_values), size=num_rows, p=education_probabilities
        )
        education_picks = ensure_full_cardinality(
            education_picks, len(education_values)
        )
        # "higher education" leaves sit in the With-higher-education branch
        higher = {
            i
            for i, leaf in enumerate(education_values)
            if EDUCATION_TREE["*"]["With-higher-education"]["Undergraduate"].get(leaf)
            is not None
            or EDUCATION_TREE["*"]["With-higher-education"]["Postgraduate"].get(leaf)
            is not None
        }
        is_higher = np.isin(education_picks, list(higher))
        white_collar = rng.random(num_rows) < np.where(is_higher, 0.75, 0.25)
        occupation_picks = np.where(
            white_collar,
            rng.choice(white, size=num_rows),
            rng.choice(other, size=num_rows),
        )
        occupation_picks = ensure_full_cardinality(
            occupation_picks, len(occupation_values)
        )
        high_salary = rng.random(num_rows) < np.where(is_higher, 0.45, 0.12)
        salary_picks = high_salary.astype(np.int64)  # 1 = ">50K"
        salary_picks = ensure_full_cardinality(salary_picks, len(SALARY_CLASSES))
        return (
            Column.from_pool(education_picks, education_values),
            Column.from_pool(occupation_picks, occupation_values),
            Column.from_pool(salary_picks, SALARY_CLASSES),
        )

    # Keep this order: every draw advances the one RNG, so it decides the values.
    education, occupation, salary = draw_education_occupation_salary()
    columns = [
        Column.from_pool(ages - AGE_MIN, range(AGE_MIN, AGE_MAX + 1)),
        draw(list(GENDERS)),
        draw(list(RACES)),
        draw_marital(),
        education,
        draw_country(),
        draw(_flatten(WORK_CLASS_GROUPS)),
        occupation,
        salary,
    ]
    schema = Schema(
        (
            ColumnSpec("age", ColumnType.INT),
            ColumnSpec("gender"),
            ColumnSpec("race"),
            ColumnSpec("marital_status"),
            ColumnSpec("education"),
            ColumnSpec("native_country"),
            ColumnSpec("work_class"),
            ColumnSpec("occupation"),
            ColumnSpec("salary_class"),
        )
    )
    return Table(schema, columns)


def adults_hierarchies() -> dict[str, Hierarchy]:
    """Hierarchies with exactly the Figure 9 heights (4,1,1,2,3,2,2,2,1)."""
    return {
        "age": RangeHierarchy([5, 10, 20], suppress_top=True),
        "gender": SuppressionHierarchy(),
        "race": SuppressionHierarchy(),
        "marital_status": TaxonomyHierarchy.grouped(MARITAL_GROUPS),
        "education": TaxonomyHierarchy(EDUCATION_TREE),
        "native_country": TaxonomyHierarchy.grouped(COUNTRY_GROUPS),
        "work_class": TaxonomyHierarchy.grouped(WORK_CLASS_GROUPS),
        "occupation": TaxonomyHierarchy.grouped(OCCUPATION_GROUPS),
        "salary_class": SuppressionHierarchy(),
    }


def adults_problem(
    num_rows: int = DEFAULT_ROWS,
    *,
    qi_size: int = len(ADULTS_QI),
    seed: int = 7,
) -> PreparedTable:
    """An Adults problem over the first ``qi_size`` attributes (Figure 10).

    The paper's sweeps "began with the first three quasi-identifier
    attributes ... and added additional attributes in the order they appear"
    — ``qi_size`` selects that prefix.
    """
    if not 1 <= qi_size <= len(ADULTS_QI):
        raise ValueError(f"qi_size must be in [1, {len(ADULTS_QI)}], got {qi_size}")
    table = adults_table(num_rows, seed=seed)
    return PreparedTable(table, adults_hierarchies(), ADULTS_QI[:qi_size])
