//===- park/IntrusiveFifo.h - FIFO of caller-owned nodes -------*- C++ -*-===//
///
/// \file
/// The one queue discipline of the waiting layers: a singly linked FIFO
/// of nodes that blocked threads own (each on its own stack), linked
/// through the node's `Next` member.  FatLock's entry queue and wait
/// set, every ParkingLot bucket, and FissileLock's wait set and morphed
/// list are each one of these.
///
/// The queue never allocates and never owns a node: a thread links its
/// node while it blocks and must see it unlinked before its frame ends.
/// The queue is not synchronized; its owner guards it with the mutex
/// under which the waiters re-check their state, and a waker that must
/// act after dropping that mutex captures what it needs (the node's
/// Parker, which lives as long as the registry) before unlinking.
///
//===----------------------------------------------------------------------===//

#ifndef THINLOCKS_PARK_INTRUSIVEFIFO_H
#define THINLOCKS_PARK_INTRUSIVEFIFO_H

#include <cstdint>

namespace thinlocks {

/// FIFO of \p Node objects linked through `Node *Node::Next`.  Pushes
/// and pops are O(1); removing a given node walks from the front.
template <typename Node> class IntrusiveFifo {
public:
  IntrusiveFifo() = default;
  IntrusiveFifo(const IntrusiveFifo &) = delete;
  IntrusiveFifo &operator=(const IntrusiveFifo &) = delete;

  bool empty() const { return Head == nullptr; }
  uint32_t size() const { return Len; }
  /// \returns the longest-queued node, or null when empty.
  Node *front() const { return Head; }

  /// Links \p N, which is in no queue, at the tail.
  void pushBack(Node *N) {
    N->Next = nullptr;
    (Tail ? Tail->Next : Head) = N;
    Tail = N;
    ++Len;
  }

  /// Unlinks and \returns the front node, or null when empty.
  Node *popFront() {
    Node *N = Head;
    if (N)
      unlink(nullptr, N);
    return N;
  }

  /// Unlinks \p N.  \returns false, changing nothing, if \p N is not
  /// queued here.
  bool remove(const Node *N) {
    return removeFirst([N](const Node &Cur) { return &Cur == N; }) !=
           nullptr;
  }

  /// Unlinks and \returns the first node, front to back, that \p Match
  /// accepts, or null if none does.
  template <typename Pred> Node *removeFirst(Pred &&Match) {
    Node *Prev = nullptr;
    for (Node *Cur = Head; Cur; Prev = Cur, Cur = Cur->Next) {
      if (Match(*Cur)) {
        unlink(Prev, Cur);
        return Cur;
      }
    }
    return nullptr;
  }

  /// Unlinks every node \p Match accepts, in one front-to-back walk.
  /// \p Match sees each node while it is still linked, so it may read it
  /// (and capture what must outlive the unlink), but must not link or
  /// unlink nodes itself.  \returns how many it unlinked.
  template <typename Pred> uint32_t removeAll(Pred &&Match) {
    uint32_t Removed = 0;
    Node *Prev = nullptr;
    for (Node *Cur = Head; Cur;) {
      Node *Next = Cur->Next;
      if (Match(*Cur)) {
        unlink(Prev, Cur);
        ++Removed;
      } else {
        Prev = Cur;
      }
      Cur = Next;
    }
    return Removed;
  }

  /// \returns how many queued nodes \p Match accepts.
  template <typename Pred> uint32_t countIf(Pred &&Match) const {
    uint32_t Count = 0;
    for (const Node *Cur = Head; Cur; Cur = Cur->Next)
      Count += Match(*Cur) ? 1 : 0;
    return Count;
  }

private:
  /// Unlinks \p N, whose predecessor is \p Prev (null at the front).
  void unlink(Node *Prev, Node *N) {
    (Prev ? Prev->Next : Head) = N->Next;
    if (Tail == N)
      Tail = Prev;
    N->Next = nullptr;
    --Len;
  }

  Node *Head = nullptr;
  Node *Tail = nullptr;
  uint32_t Len = 0;
};

} // namespace thinlocks

#endif // THINLOCKS_PARK_INTRUSIVEFIFO_H
