"""The union-find connectivity oracle for the design tests.

A disjoint-set pass over the blocks in order, one merge at a time: the
reference that nbibd's array rules (`validate`'s first-seen prefix test
and `is_connected`'s component count) must match at every prefix.
"""


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def prefix_connected_flags(t, blocks):
    """For every prefix of blocks, whether the posters seen so far form one component.

    Each block joins its members.  Edges only accumulate as the prefix
    grows, so the component count among seen posters is
    (#seen - #merges); posters no block reviews are never counted.
    """
    uf = UnionFind(t)
    seen = [False] * t
    seen_count = 0
    merges = 0
    flags = []
    for ids in blocks:
        for poster in ids:
            if not seen[poster]:
                seen[poster] = True
                seen_count += 1
        first = ids[0]
        for other in ids[1:]:
            if uf.union(first, other):
                merges += 1
        flags.append(seen_count - merges == 1)
    return flags

