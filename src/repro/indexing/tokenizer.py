"""Term extraction from raw document text.

The synthetic corpus already stores term lists, but the builders accept
arbitrary text through this tokenizer so the pipeline also works on real
documents (the quickstart example feeds it prose).
"""

from __future__ import annotations

import re
from typing import List

_TOKEN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> List[str]:
    """Lowercase and split ``text`` into alphanumeric terms.

    >>> tokenize("Hello, World! Hello?")
    ['hello', 'world', 'hello']
    """
    return _TOKEN.findall(text.lower())
