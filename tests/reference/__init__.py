"""Test-side references that the program itself never runs.

* :mod:`.oracle` -- the exhaustive MILP oracle on the dense simplex in
  :mod:`.simplex`; it shares no code with HiGHS, which it checks.
* :mod:`.recheck` -- the loop form of the feasibility re-check, against
  which the compiled, vectorised one is compared.
* :mod:`.lpread` -- an LP-text reader and a structural model comparison,
  which check ``frequc.milp.export_model`` by round trip.
"""
