"""An in-memory columnar relational engine.

This package is the substrate that the Incognito reproduction runs on.  The
original paper implemented its algorithms in Java on top of IBM DB2, using a
relational star schema (fact table plus one generalization "dimension" table
per quasi-identifier attribute) and expressing the key primitives as SQL:

* ``SELECT COUNT(*) ... GROUP BY q1, ..., qn``  — frequency-set computation,
* ``SUM(count) ... GROUP BY ...`` over a joined dimension — rollup,
* the candidate join / edge-generation queries of Section 3.1.2.

Here the same primitives are provided by a small, dependency-free engine:

* :class:`~repro.relational.schema.Schema` / :class:`~repro.relational.schema.ColumnSpec`
  describe a relation's attributes.
* :class:`~repro.relational.column.Column` stores one attribute
  dictionary-encoded: a numpy ``int32`` code array plus the list of distinct
  values.  Dictionary encoding is the moral equivalent of the paper's
  materialised dimension tables and makes "generalize this column" a single
  fancy-index.
* :class:`~repro.relational.table.Table` is an immutable collection of equal
  length columns with projection, selection, row iteration and CSV I/O.
* :func:`~repro.relational.groupby.group_by_count` computes frequency sets
  with vectorised mixed-radix keying, counted with ``np.bincount`` when the
  key space fits within the row count and by sorting otherwise.
* :func:`~repro.relational.join.hash_join` is a classic build/probe hash
  equi-join, used by the star schema and the joining-attack simulator.
* :class:`~repro.relational.star.StarSchema` ties a fact table to its
  generalization dimensions (paper Figure 4).
"""

from repro.relational.aggregate import aggregate
from repro.relational.column import Column
from repro.relational.csvio import read_csv, write_csv
from repro.relational.groupby import GroupByResult, group_by_count
from repro.relational.join import hash_join
from repro.relational.schema import ColumnSpec, Schema
from repro.relational.star import StarSchema
from repro.relational.table import Table

__all__ = [
    "Column",
    "ColumnSpec",
    "GroupByResult",
    "Schema",
    "StarSchema",
    "Table",
    "aggregate",
    "group_by_count",
    "hash_join",
    "read_csv",
    "write_csv",
]
