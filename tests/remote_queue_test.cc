// RemoteQueue — the lock-free MPSC hand-off list under the batched
// submission path. Single-threaded properties first (arrival-order
// take, empty/non-empty transition reporting, leftover cleanup), then
// the concurrent contract: N producers push while the single owner
// drains, and every pushed payload must come out exactly once, in
// per-producer FIFO order, also when the owner hands the drained node
// addresses back to the producers. Run under TSan this is the
// memory-ordering proof of the release-push / acquire-take pairing.

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cosr/service/remote_queue.h"

namespace cosr {
namespace {

using IntQueue = RemoteQueue<int>;

TEST(RemoteQueueTest, StartsEmptyAndTakeAllReturnsNull) {
  IntQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.TakeAll(), nullptr);
  EXPECT_TRUE(queue.empty());
}

TEST(RemoteQueueTest, PushReportsEmptyToNonEmptyTransitionOnly) {
  IntQueue queue;
  // The first push is the transition; later pushes onto a non-empty list
  // are not (their wakeup is covered by the first pusher's notify).
  EXPECT_TRUE(queue.Push(new IntQueue::Node(1)));
  EXPECT_FALSE(queue.empty());
  EXPECT_FALSE(queue.Push(new IntQueue::Node(2)));
  EXPECT_FALSE(queue.Push(new IntQueue::Node(3)));

  // Draining resets the transition: the next push reports empty again.
  IntQueue::Node* node = queue.TakeAll();
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(queue.empty());
  while (node != nullptr) {
    IntQueue::Node* next = node->next;
    delete node;
    node = next;
  }
  EXPECT_TRUE(queue.Push(new IntQueue::Node(4)));
  delete queue.TakeAll();
}

TEST(RemoteQueueTest, TakeAllYieldsArrivalOrder) {
  IntQueue queue;
  for (int i = 0; i < 100; ++i) queue.Push(new IntQueue::Node(i));

  std::vector<int> taken;
  for (IntQueue::Node* node = queue.TakeAll(); node != nullptr;) {
    taken.push_back(node->value);
    IntQueue::Node* next = node->next;
    delete node;
    node = next;
  }
  ASSERT_EQ(taken.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(taken[i], i);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.TakeAll(), nullptr);
}

TEST(RemoteQueueTest, InterleavedPushTakeKeepsEveryBatchWhole) {
  IntQueue queue;
  std::vector<int> taken;
  const auto drain = [&] {
    for (IntQueue::Node* node = queue.TakeAll(); node != nullptr;) {
      taken.push_back(node->value);
      IntQueue::Node* next = node->next;
      delete node;
      node = next;
    }
  };
  queue.Push(new IntQueue::Node(0));
  queue.Push(new IntQueue::Node(1));
  drain();
  queue.Push(new IntQueue::Node(2));
  drain();
  drain();  // empty drain between pushes is a no-op
  queue.Push(new IntQueue::Node(3));
  queue.Push(new IntQueue::Node(4));
  drain();
  EXPECT_EQ(taken, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RemoteQueueTest, DestructorFreesLeftoverNodes) {
  // Payload with a side effect so ASan/LSan plus this counter pin "every
  // node freed exactly once" even when the owner never drained.
  static std::atomic<int> live{0};
  struct Tracked {
    Tracked() { live.fetch_add(1); }
    Tracked(const Tracked&) { live.fetch_add(1); }
    Tracked(Tracked&&) noexcept { live.fetch_add(1); }
    ~Tracked() { live.fetch_sub(1); }
  };
  {
    RemoteQueue<Tracked> queue;
    for (int i = 0; i < 10; ++i) {
      queue.Push(new RemoteQueue<Tracked>::Node(Tracked{}));
    }
    EXPECT_EQ(live.load(), 10);
  }
  EXPECT_EQ(live.load(), 0);
}

// The concurrent hammer: N producers push (producer, seq) payloads while
// the owner drains concurrently (not just at the end). Checks, per the
// MPSC contract:
//   * completeness — every pushed payload is taken exactly once;
//   * per-producer FIFO — each producer's seqs arrive in order after the
//     owner's take-reverse.
TEST(RemoteQueueTest, ConcurrentProducersDrainCompletely) {
  constexpr int kProducers = 4;
  constexpr std::uint32_t kPerProducer = 20000;
  using Payload = std::pair<int, std::uint32_t>;  // (producer, seq)
  RemoteQueue<Payload> queue;

  std::atomic<int> producers_done{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, &producers_done, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        queue.Push(new RemoteQueue<Payload>::Node(Payload(p, i)));
      }
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }

  // The single owner: drain until all producers finished AND the final
  // take came back empty (the done-check precedes the last take, so no
  // straggler push can be missed).
  std::vector<std::uint32_t> next_seq(kProducers, 0);
  std::uint64_t taken = 0;
  for (;;) {
    const bool all_done =
        producers_done.load(std::memory_order_acquire) == kProducers;
    RemoteQueue<Payload>::Node* node = queue.TakeAll();
    if (node == nullptr && all_done) break;
    while (node != nullptr) {
      const auto [producer, seq] = node->value;
      // Per-producer FIFO: this producer's next expected sequence number,
      // exactly once each.
      EXPECT_EQ(seq, next_seq[producer]);
      ++next_seq[producer];
      ++taken;
      RemoteQueue<Payload>::Node* next = node->next;
      delete node;
      node = next;
    }
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(taken, std::uint64_t{kProducers} * kPerProducer);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
  EXPECT_TRUE(queue.empty());
}

// The recycle shape of the concurrent facade's node pools, the one an
// ABA bug would need: a fixed set of 16 nodes circulates. The owner
// drains the queue and pushes every node back onto a free stack; each of
// 4 producers takes that stack whole with TakeStack, keeps the chain,
// and pushes its payloads in those nodes, so the same addresses come back
// to the queue over and over, from different producers. Every payload
// must still arrive exactly once and in per-producer FIFO order, and all
// 16 nodes must be accounted for at the end.
TEST(RemoteQueueTest, RecycledNodesKeepEveryPayloadOnceAndInOrder) {
  constexpr int kProducers = 4;
  constexpr int kNodes = 16;
  constexpr std::uint32_t kPerProducer = 20000;
  using Payload = std::pair<int, std::uint32_t>;  // (producer, seq)
  using Node = RemoteQueue<Payload>::Node;
  RemoteQueue<Payload> queue;
  RemoteQueue<Payload> free_nodes;
  for (int i = 0; i < kNodes; ++i) free_nodes.Push(new Node());

  std::atomic<int> producers_done{0};
  std::vector<Node*> leftovers(kProducers, nullptr);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Node* chain = nullptr;
      for (std::uint32_t i = 0; i < kPerProducer;) {
        if (chain == nullptr) chain = free_nodes.TakeStack();
        if (chain == nullptr) {
          std::this_thread::yield();  // every node is queued or held
          continue;
        }
        Node* node = chain;
        chain = chain->next;
        node->value = Payload(p, i++);
        queue.Push(node);
      }
      leftovers[p] = chain;
      producers_done.fetch_add(1, std::memory_order_release);
    });
  }

  std::vector<std::uint32_t> next_seq(kProducers, 0);
  std::uint64_t taken = 0;
  for (;;) {
    const bool all_done =
        producers_done.load(std::memory_order_acquire) == kProducers;
    Node* node = queue.TakeAll();
    if (node == nullptr && all_done) break;
    while (node != nullptr) {
      const auto [producer, seq] = node->value;
      EXPECT_EQ(seq, next_seq[producer]);
      ++next_seq[producer];
      ++taken;
      Node* next = node->next;  // read before the node goes back
      free_nodes.Push(node);
      node = next;
    }
  }
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(taken, std::uint64_t{kProducers} * kPerProducer);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
  // Every node is back: on the free stack or in a producer's chain.
  std::vector<Node*> chains = leftovers;
  chains.push_back(free_nodes.TakeStack());
  int nodes = 0;
  for (Node* node : chains) {
    while (node != nullptr) {
      Node* next = node->next;
      delete node;
      node = next;
      ++nodes;
    }
  }
  EXPECT_EQ(nodes, kNodes);
}

}  // namespace
}  // namespace cosr
