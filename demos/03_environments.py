"""Environments: X-indexed verdicts, the theta/psi operators, the encoding.

A reactive system runs against an environment that allows some set X of
visible actions.  Time-outs fire only while the system idles under X, so
whether two processes match can depend on X -- and the library exposes that
through X-indexed verdicts, through the environment operators inside the
term language, and through an explicit encoding into fresh labels.
"""

from ccspt import (alphabet, brb_X_check, build_lts, encode, parse_term,
                   render, step, to_aut, tob_check)
from ccspt.encode import encoded_entry

t1, t2 = parse_term("t.b.0 + a.b.0"), parse_term("tau.a.b.0 + a.0")
sig = alphabet(t1) | alphabet(t2)
l1, l2 = build_lts(t1, sigma=sig), build_lts(t2, sigma=sig)

# Under an environment that blocks everything, the left process may time
# out into a state where b has become possible; the right one cannot.
for env in (frozenset(), frozenset({"a"}), frozenset({"a", "b"})):
    v = brb_X_check(l1, 0, l2, 0, env, sigma=sig)
    print(f"allowed {sorted(env) or '{}'}: {v.equivalent}")

# theta puts a process into an environment window; its argument's blocked
# branches disappear operationally.
guarded = parse_term("theta{a}{a}(b.0 + a.c.0)")
print("\ntheta prunes:", [(lab, render(t)) for lab, t in step(guarded)])

# psi commits the environment that a time-out will be taken under.
committed = parse_term("psi{}(t.b.0)")
print("psi commits:", [(lab, render(t)) for lab, t in step(committed)])

# The same environment window exists at the transition-system level: the
# binary time-out characterisation reads X-verdicts off wrapped states.
print("\nwrapped verdict:",
      tob_check(l1, 0, l2, 0, sigma=sig, env=frozenset()).equivalent)

# And the encoding spells environments out as labels: settling on X is an
# eps_{..} step, an environment time-out is t_eps.  A state settles only
# under the actions it can still meet, so t.0, which never offers a, enters
# env{}(0) under {a} as under {}.
enc = encode(build_lts(parse_term("t.0"), sigma={"a"}))
print("\nencoded system:")
print(to_aut(enc))
print("entry under {a}:", enc.tags[encoded_entry(enc, frozenset({'a'}))])
