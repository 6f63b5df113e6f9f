"""IPv4 address ranges and port sets shared by every module."""

from __future__ import annotations

from dataclasses import dataclass, field


def ip_to_int(ip: str) -> int:
    parts = ip.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address: {ip!r}")
    value = 0
    for p in parts:
        octet = int(p)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 address: {ip!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    return f"{(value >> 24) & 0xFF}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"


@dataclass(frozen=True, order=True)
class AddressRange:
    """IPv4 CIDR block; base must be the canonical network address."""

    base: str
    prefix_len: int
    # derived once from base and prefix_len; not part of equality or ordering
    base_int: int = field(init=False, compare=False, repr=False)
    mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not 0 <= self.prefix_len <= 32:
            raise ValueError(f"prefix_len out of range: {self.prefix_len}")
        base_int = ip_to_int(self.base)
        mask = (0xFFFFFFFF << (32 - self.prefix_len)) & 0xFFFFFFFF
        if base_int & ~mask != 0:
            raise ValueError(
                f"{self.base}/{self.prefix_len}: base is not the network address"
            )
        object.__setattr__(self, "base_int", base_int)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def parse(cls, cidr: str) -> "AddressRange":
        base, _, plen = cidr.partition("/")
        if not plen:
            raise ValueError(f"missing prefix length: {cidr!r}")
        return cls(base, int(plen))

    @property
    def last_int(self) -> int:
        return self.base_int | (~self.mask & 0xFFFFFFFF)

    def num_addresses(self) -> int:
        return 1 << (32 - self.prefix_len)

    def contains(self, ip: str) -> bool:
        return self.contains_int(ip_to_int(ip))

    def contains_int(self, ip: int) -> bool:
        return (ip & self.mask) == self.base_int

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base_int <= other.last_int and other.base_int <= self.last_int

    def addresses(self):
        """Iterate all addresses in the range as dotted quads."""
        for v in range(self.base_int, self.last_int + 1):
            yield int_to_ip(v)

    def __str__(self) -> str:
        return f"{self.base}/{self.prefix_len}"


def any_contains(ranges, ip_int: int) -> bool:
    for r in ranges:
        if r.contains_int(ip_int):
            return True
    return False


def ranges_overlap(ranges) -> bool:
    """True if any two ranges in the list overlap."""
    ordered = sorted(ranges, key=lambda r: r.base_int)
    for a, b in zip(ordered, ordered[1:]):
        if a.overlaps(b):
            return True
    return False


def exclude_ranges(universe: AddressRange, holes) -> list:
    """CIDR blocks covering universe minus every hole, smallest base first."""
    touching = [h for h in holes if h.overlaps(universe)]
    if not touching:
        return [universe]
    if any(h.base_int <= universe.base_int and universe.last_int <= h.last_int for h in touching):
        return []
    half_len = universe.prefix_len + 1
    mid = universe.base_int + universe.num_addresses() // 2
    lower = AddressRange(universe.base, half_len)
    upper = AddressRange(int_to_ip(mid), half_len)
    return exclude_ranges(lower, touching) + exclude_ranges(upper, touching)


@dataclass(frozen=True, order=True)
class PortRange:
    lo: int
    hi: int

    def __post_init__(self):
        if not (0 <= self.lo <= self.hi <= 65535):
            raise ValueError(f"bad port range {self.lo}-{self.hi}")

    @classmethod
    def parse(cls, text) -> "PortRange":
        if isinstance(text, int):
            return cls(text, text)
        lo, _, hi = str(text).partition("-")
        return cls(int(lo), int(hi) if hi else int(lo))

    def contains(self, port: int) -> bool:
        return self.lo <= port <= self.hi

    def __str__(self) -> str:
        return str(self.lo) if self.lo == self.hi else f"{self.lo}-{self.hi}"


def ports_contain(port_ranges, port: int) -> bool:
    return any(pr.contains(port) for pr in port_ranges)
