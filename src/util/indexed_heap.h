#ifndef RDMAJOIN_UTIL_INDEXED_HEAP_H_
#define RDMAJOIN_UTIL_INDEXED_HEAP_H_

#include <cstdint>
#include <vector>

namespace rdmajoin {

/// Binary min-heap over the ids 0..n-1, each present at most once with one
/// double key. A position index makes Set (insert or re-key) and Erase
/// O(log n), so the heap never holds stale entries. Ties break by the
/// smaller id: the order of pops is a pure function of the (key, id) pairs,
/// which keeps event processing deterministic.
class IndexedMinHeap {
 public:
  explicit IndexedMinHeap(size_t n = 0) : pos_(n, kAbsent) {}

  bool empty() const { return heap_.empty(); }
  /// Smallest (key, id); the heap must not be empty.
  uint32_t top() const { return heap_.front().id; }
  double top_key() const { return heap_.front().key; }

  /// Inserts `id` with `key`, or moves it to `key` when present.
  void Set(uint32_t id, double key) {
    size_t i = pos_[id];
    if (i == kAbsent) {
      i = heap_.size();
      heap_.push_back(Entry{key, id});
      pos_[id] = static_cast<uint32_t>(i);
      SiftUp(i);
      return;
    }
    const bool up = key < heap_[i].key;
    heap_[i].key = key;
    if (up) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  /// Removes `id` if present.
  void Erase(uint32_t id) {
    const size_t i = pos_[id];
    if (i == kAbsent) return;
    pos_[id] = kAbsent;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    heap_[i] = last;
    pos_[last.id] = static_cast<uint32_t>(i);
    SiftUp(i);
    SiftDown(pos_[last.id]);
  }

  /// Appends every id whose key is <= `bound`, in heap (not sorted) order.
  /// Visits only those entries and their children: O(k) for k results.
  void CollectAtMost(double bound, std::vector<uint32_t>* out) const {
    const size_t first = out->size();
    if (heap_.empty() || !(heap_.front().key <= bound)) return;
    out->push_back(heap_.front().id);
    for (size_t k = first; k < out->size(); ++k) {
      const size_t child = 2 * static_cast<size_t>(pos_[(*out)[k]]) + 1;
      for (size_t c = child; c < child + 2 && c < heap_.size(); ++c) {
        if (heap_[c].key <= bound) out->push_back(heap_[c].id);
      }
    }
  }

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;
  struct Entry {
    double key;
    uint32_t id;
  };
  static bool Less(const Entry& a, const Entry& b) {
    return a.key < b.key || (a.key == b.key && a.id < b.id);
  }
  void Place(size_t i, const Entry& e) {
    heap_[i] = e;
    pos_[e.id] = static_cast<uint32_t>(i);
  }
  void SiftUp(size_t i) {
    const Entry e = heap_[i];
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Less(e, heap_[parent])) break;
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, e);
  }
  void SiftDown(size_t i) {
    const Entry e = heap_[i];
    const size_t n = heap_.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && Less(heap_[child + 1], heap_[child])) ++child;
      if (!Less(heap_[child], e)) break;
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, e);
  }

  std::vector<Entry> heap_;
  std::vector<uint32_t> pos_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_INDEXED_HEAP_H_
