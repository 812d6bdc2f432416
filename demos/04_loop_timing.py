"""Check preconditions first, or select first and re-select on failure?

Checking first costs one precondition evaluation per candidate, every
time.  Selecting first only pays for re-selections when the chosen
response turns out to be inapplicable, which depends on the pass
probability p.  A re-selection is one step of the selector's ranking:
the selector ranks the set once, and each rejection takes the next
outcome.  This prints the analytic per-intrusion handling time for both
orderings across p and candidate-set sizes.
"""
from react_irs.engine import LoopOrder, estimate_loop_time

T_CHECK = 1e-6    # seconds per precondition evaluation
T_SELECT = 1e-6   # seconds per ranking step
T_EXECUTE = 5e-3  # seconds to apply a response

print(f"unit costs: check {T_CHECK*1e6:.0f}us, select {T_SELECT*1e6:.0f}us, "
      f"execute {T_EXECUTE*1e3:.0f}ms")
print()
print(f"{'n':>9} {'p':>5} {'check-first':>13} {'select-first':>13}  winner")
for n in (10, 1_000, 1_000_000):
    for p in (0.1, 0.5, 0.9, 1.0):
        cf = estimate_loop_time(LoopOrder.CHECK_FIRST, T_CHECK, T_SELECT, T_EXECUTE, p, n)
        sf = estimate_loop_time(LoopOrder.SELECT_FIRST, T_CHECK, T_SELECT, T_EXECUTE, p, n)
        winner = "select-first" if sf < cf else "check-first"
        if abs(cf - sf) / cf < 0.01:
            winner = "tie (<1%)"
        print(f"{n:>9} {p:>5.1f} {cf:>12.4f}s {sf:>12.4f}s  {winner}")

print()
print("With equal unit costs the orderings meet at p = 0.5: checking every")
print("candidate up front costs the same as taking the next ranking step for")
print("the expected half that fail.  Reliable preconditions (high p) favour")
print("select-first; flaky ones favour paying the full check bill upfront.")
