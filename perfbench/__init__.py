"""End-to-end benchmark of the repository: three calibrated workloads
(``batch``, ``live``, ``failover``) and a per-layer ledger from a
separate traced run.  Entry point: ``python3 perfbench/run.py``; see
``perfbench/README.md``.
"""
