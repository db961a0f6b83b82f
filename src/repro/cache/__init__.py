"""Cache structures: the NRU tag array, private hierarchies, the LLC."""

from repro.cache.sets import SetAssocArray
from repro.cache.private_cache import PrivateCore
from repro.cache.llc import LLCBank, LLCLine

__all__ = ["SetAssocArray", "PrivateCore", "LLCBank", "LLCLine"]
