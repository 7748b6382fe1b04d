"""The Twitter-like social network benchmark (paper §VI-A).

Per user ``u`` the store keeps three lists, co-located in one partition
(data is partitioned *by user*):

* ``{u}/producers`` — ids ``u`` follows,
* ``{u}/consumers`` — ids following ``u``,
* ``{u}/posts``     — ``u``'s messages (bounded, newest last).

Operations:

* **post** — append to ``{u}/posts``; always local.
* **follow(u, v)** — append ``v`` to ``u``'s producers and ``u`` to
  ``v``'s consumers; local or global depending on where ``v`` lives
  (the paper makes 50 % of follows global).
* **timeline(u)** — read ``u``'s producers, then everyone's posts, and
  merge; a *global read-only* transaction served from a
  globally-consistent snapshot.

The paper's mix: 85 % timeline, 7.5 % post, 7.5 % follow.
"""

from __future__ import annotations

import random
from collections.abc import Generator

from repro.core.client import Read, ReadMany, Txn
from repro.errors import ConfigurationError
from repro.workload.base import TxnSpec, Workload

#: Keep at most this many posts per user (the paper's lists are bounded
#: only by the experiment length; this keeps simulated values small).
MAX_POSTS = 20
#: Posts each user starts with.
INITIAL_POSTS = 2
#: Newest posts a timeline keeps.
TIMELINE_ITEMS = 50
#: The paper's mix: the timeline and post shares (follows take the rest),
#: and the share of follows whose followee lives in another partition.
TIMELINE_SHARE = 0.85
POST_SHARE = 0.075
FOLLOW_GLOBAL_SHARE = 0.5


def producers_key(user: int) -> str:
    return f"{user}/producers"


def consumers_key(user: int) -> str:
    return f"{user}/consumers"


def posts_key(user: int) -> str:
    return f"{user}/posts"


def _as_list(value: object) -> list:
    return list(value) if isinstance(value, list) else []


def generate_social_data(
    num_users: int,
    follows_per_user: int,
    rng: random.Random,
) -> dict[str, object]:
    """Pre-populate the social graph: random follows plus a few posts."""
    if num_users < 2:
        raise ConfigurationError("need at least two users")
    producers: dict[int, list[int]] = {u: [] for u in range(num_users)}
    consumers: dict[int, list[int]] = {u: [] for u in range(num_users)}
    for user in range(num_users):
        candidates = set()
        while len(candidates) < min(follows_per_user, num_users - 1):
            other = rng.randrange(num_users)
            if other != user:
                candidates.add(other)
        for other in sorted(candidates):
            producers[user].append(other)
            consumers[other].append(user)
    data: dict[str, object] = {}
    for user in range(num_users):
        data[producers_key(user)] = producers[user]
        data[consumers_key(user)] = consumers[user]
        data[posts_key(user)] = [f"u{user} hello {i}" for i in range(INITIAL_POSTS)]
    return data


class SocialNetworkWorkload(Workload):
    """The 85/7.5/7.5 timeline/post/follow mix over partitioned users.

    ``home_partition_index`` scopes the *acting* user to the client's
    home partition (clients act on behalf of nearby users, §IV-A); the
    followed user of a global follow lives in another partition.
    """

    def __init__(
        self,
        num_users: int,
        num_partitions: int,
        home_partition_index: int,
    ) -> None:
        if num_users < 2 * num_partitions:
            raise ConfigurationError("need at least two users per partition")
        self.num_users = num_users
        self.num_partitions = num_partitions
        self.home = home_partition_index

    # ------------------------------------------------------------------
    # User selection (users live in partition ``user % num_partitions``)
    # ------------------------------------------------------------------
    def _local_user(self, rng: random.Random) -> int:
        slots = self.num_users // self.num_partitions
        return self.home + self.num_partitions * rng.randrange(max(1, slots))

    def _remote_user(self, rng: random.Random) -> int:
        offset = rng.randrange(1, self.num_partitions)
        partition = (self.home + offset) % self.num_partitions
        slots = self.num_users // self.num_partitions
        return partition + self.num_partitions * rng.randrange(max(1, slots))

    # ------------------------------------------------------------------
    # Workload interface
    # ------------------------------------------------------------------
    def next_txn(self, rng: random.Random) -> TxnSpec:
        roll = rng.random()
        user = self._local_user(rng)
        if roll < TIMELINE_SHARE:
            return TxnSpec(program=timeline_txn(user), read_only=True, label="timeline")
        if roll < TIMELINE_SHARE + POST_SHARE:
            message = f"u{user} says {rng.randrange(1_000_000)}"
            return TxnSpec(program=post_txn(user, message), label="post")
        is_global = (
            self.num_partitions > 1 and rng.random() < FOLLOW_GLOBAL_SHARE
        )
        other = self._remote_user(rng) if is_global else self._local_user(rng)
        while other == user:
            other = self._local_user(rng)
        label = "follow-global" if is_global else "follow"
        return TxnSpec(program=follow_txn(user, other), label=label)


def post_txn(user: int, message: str):
    """Append a message to the user's posts (always local)."""

    def program(txn: Txn) -> Generator:
        posts = _as_list((yield Read(posts_key(user))))
        posts.append(message)
        txn.write(posts_key(user), posts[-MAX_POSTS:])

    return program


def follow_txn(follower: int, followee: int):
    """``follower`` starts following ``followee`` (two list updates)."""

    def program(txn: Txn) -> Generator:
        values = yield ReadMany((producers_key(follower), consumers_key(followee)))
        producers = _as_list(values[producers_key(follower)])
        consumers = _as_list(values[consumers_key(followee)])
        if followee not in producers:
            producers.append(followee)
            txn.write(producers_key(follower), producers)
        if follower not in consumers:
            consumers.append(follower)
            txn.write(consumers_key(followee), consumers)

    return program


def timeline_txn(user: int):
    """Merge the posts of everyone ``user`` follows (global read-only)."""

    def program(txn: Txn) -> Generator:
        producers = _as_list((yield Read(producers_key(user))))
        if not producers:
            return
        post_keys = tuple(posts_key(producer) for producer in producers)
        posts_by_user = yield ReadMany(post_keys)
        merged: list = []
        for key in post_keys:
            merged.extend(_as_list(posts_by_user[key]))
        # The timeline result itself (newest slice) — computed, not stored.
        del merged[:-TIMELINE_ITEMS]

    return program
