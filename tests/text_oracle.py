"""Character-at-a-time normalization, kept as the test oracle for ``segmt.text``.

This is ``normalize_token`` as the package ran it before keys came from a
memo and categories were stripped with ``str.translate``: lowercase first,
then one ``unicodedata.category`` call per character of the token.  It is
slow but plainly correct, so the differential tests compare the package
against it.
"""

from __future__ import annotations

import unicodedata

from segmt.text import NormalizationPolicy


def oracle_normalize_token(text: str, policy: NormalizationPolicy) -> str:
    if policy.lowercase:
        text = text.lower()
    out = []
    for ch in text:
        cat = unicodedata.category(ch)[0]
        if policy.strip_punctuation and cat == "P":
            continue
        if policy.strip_symbols and cat == "S":
            continue
        out.append(ch)
    return "".join(out)
