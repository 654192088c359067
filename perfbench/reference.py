"""Fixed references every benchmark run checks its outputs against.

Digests, censuses and suite rows were recorded from the package as it stood
when the benchmark was defined.  A suite row listed here must be present and
PASS; rows a later version adds count as attempted checks and must pass too.
"""

# sentence batches of verify-church3: (translation, signature of the sources)
SENTENCE_BATCHES = (("tau", "lt"), ("tolt", "ws"), ("bullet", "ws"))
SENTENCES_PER_BATCH = 200

# objects found before each stage of church:2 depth 3 (README census)
CENSUS_CHURCH3 = [0, 1, 3, 11]
OBJECTS_CHURCH4 = 2062
OBJECTS_CONWAY5 = 65538

# encode-conway5 codes every DEEP_CARRIER_STRIDE-th of the 65,536 rank-<=4
# pure sets, taken in canonical order
DEEP_CARRIER_STRIDE = 8

DIGESTS = {  # sha256 of each file the CLI writes
    "church3.json": "cc77fee3ebdec64cd65dd872303e104ddd38b07f5698279458339c087a357517",
    "church4.json": "42142fc35bf36008ebf517a2e31931b56276769bd76a51b9f9c254db47407f8c",
    "conway5.json": "a96a12557a3201258b6e68dfec74f4f6e3c9a1f5af4507e88ad82632e5ebc2a8",
    "conway5.dot": "c3238318082775c7a7e7476c5ebf0e41c838e81cb3a74506029dbf85e9562898",
}

_CORE_SMALL = (
    "least-stage-is-least", "wevels-well-ordered", "wevel-recognizer-exact",
    "wistory-search-agrees", "nothing-in-its-own-stage", "pot-within-least-stage",
    "no-self-membership", "stage-inclusion-vs-membership", "stage-proxy-ranks-itself",
    "stage-monotone-under-inclusion", "stage-of-member-strictly-below",
    "stages-potent-and-transitive", "tap-rank-law", "tap-class-members-regenerate",
    "tap-defined-iff-in-domain", "taps-equal-iff-equivalent", "decompose-roundtrip",
    "official-predicates-wellbehaved", "equiv-identity-clause",
    "hereditarily-bland-three-ways", "ur-levels-recursion-vs-recognizer",
)
# rows core_laws skips above its oracle_cap of 200 objects
_CORE_ORACLE_ONLY = ("wistory-search-agrees", "pot-within-least-stage",
                     "stages-potent-and-transitive", "official-predicates-wellbehaved")
_CHURCH = (
    "complement-injective", "double-complement-identity", "cardinal-identity-law",
    "cardinals-not-complements", "making-biconditional", "kind-taxonomy-total",
    "complement-law", "generalized-extensionality", "complement-raises-rank",
)

ROWS_VERIFY_CHURCH3 = {
    "core": _CORE_SMALL,
    "conch": (
        "stage-encoding-laws", "roundtrip-code-clauses", "roundtrip-code-injective",
        "roundtrip-cross-construction", "roundtrip-hb-iso",
        "roundtrip-level-correspondence", "roundtrip-rank-correspondence",
        "roundtrip-relation-stability", "stage-0-rank-bound", "stage-1-rank-bound",
        "stage-2-rank-bound",
    ),
    "formula": (
        "parser-roundtrip", "translations-identity-preserving", "tau-preserves-axioms",
        "tau-preserves-random-sentences", "tolt-preserves-axioms",
        "tolt-preserves-random-sentences", "bullet-preserves-axioms",
        "bullet-circle-identity", "circle-bullet-identity",
    ),
    "church": _CHURCH,
}
ROWS_CORE_CHURCH4 = {"core": tuple(r for r in _CORE_SMALL if r not in _CORE_ORACLE_ONLY)}
ROWS_CHURCH_CHURCH4 = {"church": _CHURCH}
