"""Independent character-by-character scanner for the literal tokenizer tests.

Walks the text one character at a time, tracking line and column as it
goes, the way the library's tokenizer worked before it became a single
regular expression with positions computed from offsets.  One fault of
that walk is fixed here: it matched two-character symbols against
``text[i:i+2]``, which at the end of the text is the last character
alone, so a text ending in a one-character symbol put the end of input
one column too far right.  Tokens are ``(kind, text, line, col)``;
errors are the library's ParseError and LiteralTooLarge.
"""

from typing import List, Tuple

from intval.errors import LiteralTooLarge, ParseError
from intval.literals import MAX_DIGITS

SYMBOLS = ("->", "<=", "{", "}", "[", "]", "(", ")", ";", ",", "@", ":", "+", "-", "*", "/", "^")


def scan(text: str) -> List[Tuple[str, str, int, int]]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        two = text[i : i + 2]
        if len(two) == 2 and two in SYMBOLS:
            tokens.append((two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in SYMBOLS:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_DIGITS:
                raise LiteralTooLarge(f"{j - i} digits exceed the cap {MAX_DIGITS}", line, col)
            tokens.append(("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens
