"""Process algebra with time-outs: terms, semantics, equivalences, modal logic.

The package decides (rooted) branching reactive bisimilarity through four
independent characterisations -- the direct triple-based definition, its
generalised form, the binary time-out reformulation over the environment
operator, and a label-encoding reduction -- plus a reactive Hennessy-Milner
logic with distinguishing-formula synthesis and a randomized soundness
harness for the equational axioms.
"""

from .errors import (CcsptError, DuplicateEquation, FragmentUnsupported,
                     InvalidResult, LabelUniverseMismatch, ParseError,
                     SideConditionViolated, StateBudgetExceeded,
                     TermTooDeep, UnboundReference, UnfoldingDiverged,
                     ValidityError)
from .terms import (NIL, TAU, TIMEOUT, Choice, Hide, Nil, Par, Prefix, Psi,
                    RecCall, RecSpec, Rename, Term, Theta, Var, alphabet,
                    choice, free_vars, hide, is_guarded, is_valid,
                    is_well_guarded, par, prefix, psi, rec, rename, seq, spec,
                    spec_apply, substitute, theta, theta_x, unfold)
from .parser import (SourceFile, parse_formula, parse_source, parse_spec,
                     parse_term, render)
from .semantics import (ExplorationLimits, Lts, build_lts, from_aut, initials,
                        is_strongly_guarded, stable_reachable, step, to_aut,
                        to_dot, weak_reach)
from .encode import EncodedState, encode, encoded_entry
from .bisim import (RelationStore, Verdict, brb_X_check, brb_check,
                    cbrb_check, gbrb_check, make_store, revalidate,
                    strong_bisim, tb_check, tob_check)
from .modal import (And, Diamond, EnvBox, Eps, EpsStep, EpsX, Formula,
                    HatDiamond, Not, Stable, TimeoutDiamond, Top, distinguish,
                    enumerate_fragment, in_fragment, sat, sat_env)
from .axioms import (AxiomSchema, head_normal_form, instantiate,
                     named_schema, rooted_brb_equiv, rooted_tb_equiv,
                     schema_set, soundness_raa, soundness_suite)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
