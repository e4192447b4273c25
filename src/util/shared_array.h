#ifndef TTRA_UTIL_SHARED_ARRAY_H_
#define TTRA_UTIL_SHARED_ARRAY_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ttra {

/// An immutable array held by one pointer to one heap block: an atomic
/// reference count, the element count, then the elements inline. Copying
/// is a reference-count bump, so every copy shares the payload; the block
/// is destroyed with its last reference. The empty array owns no block.
///
/// Payloads are never written after they are built, which is what makes
/// sharing them across states and threads safe. Comparison is by value:
/// two arrays on one payload are equal without looking at the elements.
template <typename T>
class SharedArray {
  struct Rep {
    std::atomic<uint32_t> refs;
    uint32_t size;
  };

 public:
  /// Builds a payload of exactly `size` elements in place, one allocation
  /// in all. Emplace each element once, in order, then Build().
  class Builder {
   public:
    explicit Builder(size_t size)
        : rep_(size == 0 ? nullptr : Allocate(size)) {}
    Builder(const Builder&) = delete;
    Builder& operator=(const Builder&) = delete;
    ~Builder() {
      if (rep_ != nullptr) Free(rep_, built_);
    }

    template <typename... Args>
    void Emplace(Args&&... args) {
      assert(rep_ != nullptr && built_ < rep_->size);
      new (Elements(rep_) + built_) T(std::forward<Args>(args)...);
      ++built_;
    }

    void Append(std::span<const T> elements) {
      for (const T& element : elements) Emplace(element);
    }

    SharedArray Build() && {
      assert(rep_ == nullptr || built_ == rep_->size);
      return SharedArray(std::exchange(rep_, nullptr));
    }

   private:
    Rep* rep_;
    uint32_t built_ = 0;
  };

  SharedArray() noexcept = default;

  /// Copies `elements` into a new payload.
  explicit SharedArray(std::span<const T> elements)
      : SharedArray(Copy(elements)) {}

  /// Moves the elements of `elements` into a new payload.
  explicit SharedArray(std::vector<T>&& elements)
      : SharedArray(Move(elements)) {}

  SharedArray(const SharedArray& other) noexcept : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  SharedArray(SharedArray&& other) noexcept
      : rep_(std::exchange(other.rep_, nullptr)) {}
  SharedArray& operator=(const SharedArray& other) noexcept {
    SharedArray copy(other);
    std::swap(rep_, copy.rep_);
    return *this;
  }
  SharedArray& operator=(SharedArray&& other) noexcept {
    Rep* old = std::exchange(rep_, std::exchange(other.rep_, nullptr));
    Release(old);
    return *this;
  }
  ~SharedArray() { Release(rep_); }

  size_t size() const { return rep_ == nullptr ? 0 : rep_->size; }
  bool empty() const { return rep_ == nullptr; }
  const T* data() const {
    return rep_ == nullptr ? nullptr : Elements(rep_);
  }
  std::span<const T> span() const { return {data(), size()}; }
  const T& operator[](size_t i) const {
    assert(i < size());
    return Elements(rep_)[i];
  }

  friend bool operator==(const SharedArray& a, const SharedArray& b) {
    if (a.rep_ == b.rep_) return true;
    return a.size() == b.size() &&
           std::equal(a.data(), a.data() + a.size(), b.data());
  }
  /// Lexicographic order by the elements' operator<.
  friend bool operator<(const SharedArray& a, const SharedArray& b) {
    if (a.rep_ == b.rep_) return false;
    return std::lexicographical_compare(a.data(), a.data() + a.size(),
                                        b.data(), b.data() + b.size());
  }

 private:
  // The elements start at the first multiple of alignof(T) past the header.
  static constexpr size_t kElementOffset =
      (sizeof(Rep) + alignof(T) - 1) / alignof(T) * alignof(T);
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  explicit SharedArray(Rep* rep) noexcept : rep_(rep) {}

  static T* Elements(Rep* rep) {
    return std::launder(reinterpret_cast<T*>(
        reinterpret_cast<std::byte*>(rep) + kElementOffset));
  }

  static Rep* Allocate(size_t size) {
    if (size > std::numeric_limits<uint32_t>::max()) {
      throw std::length_error("SharedArray: too many elements");
    }
    void* block = ::operator new(kElementOffset + size * sizeof(T));
    return new (block) Rep{{1}, static_cast<uint32_t>(size)};
  }

  /// Destroys the first `built` elements and frees the block.
  static void Free(Rep* rep, uint32_t built) {
    std::destroy_n(Elements(rep), built);
    rep->~Rep();
    ::operator delete(rep);
  }

  // A count of 1 seen by a holder means no other reference exists, and
  // none can appear (a copy needs a reference to copy from), so the sole
  // owner frees without the locked read-modify-write. The acquire load
  // orders the free after every other thread's release of its reference.
  // Most payloads die unshared (kernel temporaries, replaced states).
  static void Release(Rep* rep) {
    if (rep == nullptr) return;
    if (rep->refs.load(std::memory_order_acquire) == 1 ||
        rep->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      Free(rep, rep->size);
    }
  }

  static SharedArray Copy(std::span<const T> elements) {
    Builder builder(elements.size());
    builder.Append(elements);
    return std::move(builder).Build();
  }

  static SharedArray Move(std::vector<T>& elements) {
    Builder builder(elements.size());
    for (T& element : elements) builder.Emplace(std::move(element));
    return std::move(builder).Build();
  }

  Rep* rep_ = nullptr;
};

}  // namespace ttra

#endif  // TTRA_UTIL_SHARED_ARRAY_H_
