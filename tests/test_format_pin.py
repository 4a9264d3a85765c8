"""Format pin: every step image, reverse step and codeword, hashed exhaustively.

Each digest covers, for one spec, ``step(w)`` on every violating word,
``step_back(w)`` (image or error type) on every non-start word and
``encode(p)`` on every payload.  The digests were recorded from a reference
build; a mismatch means the wire format of that spec changed.

The reverse-complement pair shrink never fires at n <= 8 (no two
non-overlapping windows of its minimal length fit), so it is pinned on its
own at n = 10, where every violating word is built as a window followed by
its reverse complement.

The step-graph digests cover the DOT text of ``graph_to_dot`` and the
newline-joined ``check_graph`` key=value lines, so the exact reports are
pinned too.
"""

import hashlib

import pytest

from parcodec import (
    CodecError,
    all_words,
    build_codec,
    build_state_graph,
    check_graph,
    encode,
    graph_to_dot,
    parse_spec,
    reverse_complement,
    reverse_complement_shrink,
)

CODEC_DIGESTS = [
    ("mw:n=12,l=9,p=2", 2, "896660bb5fce1dba2494612093c34ff1efb7fa395475bca92747eb93814b3c9e"),
    ("lab:n=12,l=10,wmin=2,wmax=8", 2, "24d6a39e0f7dd657ee11842206b60e59534ea8e84ce8324c81080e243dc5fd85"),
    ("mp:n=10,l=8,p=3", 2, "dbd448d15491951124355f6ae9325c31d006b4d3d9e36d74d2cedba380e99cb8"),
    ("enp:n=12,l=10", 2, "5e55bdafaa7781041a100fddc356a2bd8d5180abde3f7dc5141583332ede4648"),
    ("rf:n=12,l=9", 2, "ad59ea468a17a9b86ef178622d878dffa9aa9e36651b0d418bde1f6dae49d8b1"),
    ("srf:n=12,l=9,beta=10", 2, "ff8786a8619cb779207c5ded499387cb8999c53efa56bf6eaa524d526e08d7f9"),
    ("ab:n=12", 2, "4e1f4c066f9a224a15522871850912b5228eb77ef47b1b7a0f34f2853772c5f2"),
    (
        "intersect:mw:n=10,l=10,p=2+mp:n=10,l=9,p=3",
        2,
        "bef5045556837749ca28e95e21466642413f28630415285c45a5e537697e89d4",
    ),
    ("ss:n=8", 4, "39dafb37e158c95f05b4021507c107f76b21075b582c8051c86ff0725e1ad3a1"),
]
GRAPH_DIGESTS = [
    (
        "mw:n=8,l=7,p=2",
        2,
        "a08ff960e5335f0aa3c2785b356a210aa4ae946838441f5d5dd4fd919c7b80f0",
        "482bb16dc405725d75b6d766b173d4c6dce7bbcc274459bc9d99eb9e086c9e8b",
    ),
    (
        "rf:n=8,l=7",
        2,
        "4fbdb2e47bb5acc05b1f3f07f494484ed19ad4a12d0485e6f83a3eb89997f3ee",
        "1929a6b82e9897fd3746123f78f2980897d603aec2ce00091f4149c9ebb74de5",
    ),
    (
        "ab:n=12",
        2,
        "2ddf577e8679cd8b4dfeb415f2c725123389e0a880e1f51a760b6ee6c857415f",
        "18ad12048c37d42dc0f98c990bcd8fbbeb4b3fcf91d7b2c81fe0bbee1fb7f009",
    ),
    (
        "ss:n=8",
        4,
        "1739690461b23fe778e0a456ea1b4152ed0855fe3d79d168c02b8a2c9013e151",
        "c8fe5c92ada7e01c1029cac8416ec770b43495e6e5ea46f5050689372a03837a",
    ),
    (
        "intersect:mw:n=16,l=10,p=2+mp:n=16,l=9,p=3",
        2,
        "6406f8ad38e7bd5330bf5f3882a57463f916d7a4fb444b686d8d2f254b172ef1",
        "35b32c3468b5c5c3e3d1dbc6a5fe15f7fd71cb71d5dccd98ad4512b24115e628",
    ),
]
RC_PAIR_DIGEST = "2f55edc995c1e6d2322cdc6ca78b8f5642c90104a4926f14b58aa8954961443c"


def _outcome(fn, word) -> bytes:
    try:
        return bytes(fn(word))
    except CodecError as exc:
        return type(exc).__name__.encode()


@pytest.mark.parametrize("text, q, expected", CODEC_DIGESTS)
def test_codec_format_pinned(text, q, expected):
    codec = build_codec(parse_spec(text), q)
    digest = hashlib.sha256()
    for word in all_words(q, codec.n):
        if not codec.satisfies(word):
            digest.update(bytes(codec.step(word)))
        if not codec.is_start(word):
            digest.update(_outcome(codec.step_back, word))
        digest.update(b"|")
    for payload in all_words(q, codec.k):
        digest.update(bytes(encode(codec, payload)[0]))
    assert digest.hexdigest() == expected


def test_reverse_complement_pair_format_pinned():
    shrink = reverse_complement_shrink(10, 5)
    digest = hashlib.sha256()
    for head in all_words(4, 5):
        image = shrink.shrink(head + reverse_complement(head))
        digest.update(bytes(image) + b"|" + _outcome(shrink.unshrink, image))
    # every index pair under two fixed bodies: in-range, overlapping, past the end
    for rest in ((0, 1, 2, 3, 0), (3, 3, 1, 0, 2)):
        for fields in all_words(4, 4):
            digest.update(_outcome(shrink.unshrink, rest + fields))
    assert digest.hexdigest() == RC_PAIR_DIGEST


@pytest.mark.parametrize("text, q, dot_digest, report_digest", GRAPH_DIGESTS)
def test_step_graph_reports_pinned(text, q, dot_digest, report_digest):
    codec = build_codec(parse_spec(text), q)
    dot = "".join(graph_to_dot(build_state_graph(codec)))
    assert hashlib.sha256(dot.encode("ascii")).hexdigest() == dot_digest
    report = "\n".join(check_graph(codec).kv_lines())
    assert hashlib.sha256(report.encode("ascii")).hexdigest() == report_digest
