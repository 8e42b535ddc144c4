"""Benchmark applications (paper §6, Table 1).

Each application is written against the public :class:`repro.spark.DecaContext`
API exactly as its Scala counterpart is written against Spark, and declares
its UDTs (:mod:`repro.apps.udts`) so the Deca optimizer can classify and
decompose them:

========================  ======  =====  ========  ==================
application               stages  jobs   cache     shuffle
========================  ======  =====  ========  ==================
WordCount (WC)            two     single none      aggregated
LogisticRegression (LR)   single  multi  static    none
KMeans                    two     multi  static    aggregated
PageRank (PR)             multi   multi  static    grouped+aggregated
ConnectedComponent (CC)   multi   multi  static    grouped+aggregated
========================  ======  =====  ========  ==================

plus the two exploratory SQL queries of Table 6.
"""
