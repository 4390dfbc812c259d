"""Many-to-many join-tree datasets (paper reproduction) as Spark frames.

Generators are deterministic in ``seed`` so the DuckDB oracle and the
reference simulator see the same input as the engine.
"""
from pyspark.sql import SparkSession


def tree_dataset(spark: SparkSession, tree, n_driver: int, seed: int = 0, *, exact_fanout=None):
    """Spark relations realizing a :class:`repro.core.jointree.JoinTree`'s
    per-edge (m, fo) — the paper's SSB-style synthetic benchmark substrate.

    Returns ``(spark_frames, pandas_frames)``; the pandas frames feed the
    DuckDB oracle and the reference simulator, the Spark frames the
    engine. Binds ``tree.join_cols`` and ``tree.size`` as a side effect.
    """
    from repro.core.datagen import gen_tree_data

    pdata = gen_tree_data(tree, n_driver, seed, exact_fanout=exact_fanout)
    sdata = {n: spark.createDataFrame(pdf) for n, pdf in pdata.items()}
    return sdata, pdata
