#ifndef COSR_SERVICE_REMOTE_QUEUE_H_
#define COSR_SERVICE_REMOTE_QUEUE_H_

#include <atomic>
#include <utility>

namespace cosr {

/// Lock-free MPSC hand-off list, llheap-style: any number of producers
/// push nodes with a Treiber-stack CAS; the single consumer takes the
/// *whole* list in one exchange and walks it in arrival order. This is
/// the per-shard "remote queue" of the concurrent facade, its one
/// submission path — producers never touch a mutex on the hot path, and
/// the consumer pays one atomic exchange per drain regardless of how many
/// batches landed.
///
/// Memory-ordering argument (the whole of it — there are only two edges):
///
///   * Push publishes with a release CAS on `head_`. Everything the
///     producer wrote before the push — the node's payload, and anything
///     the payload points at — is sequenced before the CAS, so the release
///     makes it visible to whoever reads `head_` with acquire.
///   * TakeAll (and TakeStack) consumes with an acquire exchange. It
///     synchronizes-with every release CAS whose node it observes (each
///     successful push is part of the release sequence headed by the
///     value the exchange reads), so the consumer sees fully-constructed
///     payloads. empty() uses an acquire load for the same reason, though
///     callers only branch on the null test.
///
/// All three are in fact seq_cst, which includes both edges. The
/// concurrent facade's wake-up protocol reasons about the heads together
/// with its own flags in one total order; on x86 the stronger order costs
/// nothing (a locked CAS, an exchange and a plain load either way).
///
/// Why ABA cannot bite: the push CAS never dereferences the old head — it
/// only stores it into `node->next` — and the consumer's TakeAll (like
/// TakeStack) is an unconditional exchange, not a compare. A recycled node
/// address showing up again is therefore harmless: no compare ever
/// validates stale memory.
///
/// Ownership protocol: the producer owns a node until its CAS succeeds;
/// the queue owns it until TakeAll; the consumer owns it after. The queue
/// neither allocates nor frees nodes on those paths (only its destructor
/// deletes leftovers), so where a node lives and where it goes after the
/// consumer is done with it is the caller's choice: the concurrent facade
/// recycles its batch nodes onto a second RemoteQueue used as a free
/// stack, and a waiting caller's one-op node sits on that caller's stack.
///
/// Thread-safety: Push and empty() from any thread; TakeAll from one
/// consumer at a time (the single-consumer half of MPSC is the caller's
/// contract). The consumer may change between takes when something
/// orders them, as the concurrent facade's shard claim does. TakeStack,
/// which promises no order, may run on any number of threads at once:
/// each exchange detaches a disjoint chain.
template <typename T>
class RemoteQueue {
 public:
  struct Node {
    Node() = default;
    explicit Node(T payload) : value(std::move(payload)) {}
    T value;
    Node* next = nullptr;
  };

  RemoteQueue() = default;
  RemoteQueue(const RemoteQueue&) = delete;
  RemoteQueue& operator=(const RemoteQueue&) = delete;
  ~RemoteQueue() {
    Node* node = head_.load(std::memory_order_relaxed);
    while (node != nullptr) {
      Node* next = node->next;
      delete node;
      node = next;
    }
  }

  /// Pushes `node` (ownership transfers to the queue). Returns true when
  /// the queue was empty before this push — the "I made it non-empty"
  /// signal a producer uses to decide whether a consumer needs a wakeup
  /// (pushes onto a non-empty list are covered by the notification of
  /// whoever made it non-empty).
  bool Push(Node* node) {
    Node* old_head = head_.load(std::memory_order_relaxed);
    do {
      node->next = old_head;
    } while (!head_.compare_exchange_weak(old_head, node,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed));
    return old_head == nullptr;
  }

  /// Detaches the entire list and returns it in arrival (push) order —
  /// the stack is reversed here, once, by the consumer. Per-producer FIFO
  /// follows: one producer's pushes CAS in program order, so they appear
  /// in the stack newest-first and come out oldest-first. Returns nullptr
  /// when nothing was pending. The caller walks `next` and disposes of
  /// each node; it must read a node's `next` before pushing that node
  /// anywhere again.
  Node* TakeAll() {
    Node* node = TakeStack();
    Node* reversed = nullptr;
    while (node != nullptr) {
      Node* next = node->next;
      node->next = reversed;
      reversed = node;
      node = next;
    }
    return reversed;
  }

  /// Detaches the entire list newest-first, without reversing it: the
  /// take for a free stack, where order does not matter.
  Node* TakeStack() {
    return head_.exchange(nullptr, std::memory_order_seq_cst);
  }

  bool empty() const {
    return head_.load(std::memory_order_seq_cst) == nullptr;
  }

 private:
  std::atomic<Node*> head_{nullptr};
};

}  // namespace cosr

#endif  // COSR_SERVICE_REMOTE_QUEUE_H_
