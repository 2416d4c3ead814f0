"""Global types as arrow-automata: complementation, classification, and
deadlock-free realisability in the synchronous and bounded p2p models."""

from .automata import Nfa
from .complement import (ComplementReport, ComplementResult,
                         NoComplementMethodError, complement_auto,
                         complement_cartesian, complement_dual,
                         complement_renunciation, renunciation_automaton,
                         verify_complement)
from .gtype import (Classification, GlobalType, classify, gt_product,
                    is_commutation_closed, is_commutation_deterministic,
                    is_deterministic, is_sender_driven, member_existential,
                    member_existential_via_next, member_universal, project,
                    sync_product)
from .realisability import (P2pVerdict, Status, SynchVerdict,
                            check_p2p_realisable, check_sync_realisable)
from .semantics import (Cfsm, Event, Execution, LocalAction, P2pMsc, System,
                        msc_of_execution, p2p_explore, p2p_mscs)
from .trace import (Arrow, Declaration, Msc, commute, linearisations, msc_of,
                    next_arrow, next_msc, parse_arrow)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
