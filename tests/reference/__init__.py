"""Test-side references that the program itself never runs.

* :mod:`.oracle` -- the exhaustive MILP oracle on the dense simplex in
  :mod:`.simplex`; it shares no code with HiGHS, which it checks; and the
  enumeration of secure commitments that ``freqsec.must_run``'s count is
  checked against.
* :mod:`.recheck` -- the loop form of the feasibility re-check, against
  which the compiled, vectorised one is compared.
* :mod:`.builder` -- the window builder as a loop with one ``add_row``
  per row, and the model comparison the array builder is held to.
* :mod:`.lpread` -- an LP-text reader and a structural model comparison,
  which check ``frequc.milp.export_model`` by round trip.
* :mod:`.scipy_milp` -- HiGHS through ``scipy.optimize.milp``, against
  which the direct call into HiGHS is compared.
* :mod:`.swing_rk4` -- ``simulate_swing_numeric`` and its ``_rk4`` kernel,
  a fixed-step integration of the swing model that checks the closed form
  in ``frequc.freqdyn``.
"""
