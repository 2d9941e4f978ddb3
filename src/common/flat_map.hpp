/**
 * @file
 * Open-addressing hash containers for the per-access hot path.
 *
 * The speculative memory system walks several associative structures on
 * every load and store (version-home index, MTID tags, overflow-area
 * tables, undo-log directory). std::unordered_map buys pointer-stable
 * nodes at the price of one heap node per entry, a pointer chase per
 * probe and rehash-heavy churn — none of which the simulator needs,
 * because every caller either refetches after structural changes or
 * never holds references across them. FlatMap/FlatSet keep keys and
 * values in flat arrays with robin-hood probing:
 *
 *  - power-of-two capacity, one probe-distance byte per slot;
 *  - tombstone-free deletion (backward shift), so lookup cost never
 *    degrades with erase-heavy workloads like squash cleanup;
 *  - steady-state insert/erase/find touch no allocator; growth only
 *    doubles the arrays.
 *
 * Invalidation contract (differs from std::unordered_map!): any insert
 * or erase may move *other* entries; pointers returned by find() are
 * valid only until the next structural change. Iteration order is a
 * pure function of the insertion/erase history, so runs stay
 * deterministic, but it is not sorted and not the node order of the
 * containers this replaces — callers must not depend on it.
 */

#ifndef TLSIM_COMMON_FLAT_MAP_HPP
#define TLSIM_COMMON_FLAT_MAP_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace tlsim {

/**
 * Fibonacci-multiplicative mix: one multiply plus an xor-shift. Tables
 * here are power-of-two sized and masked with the low bits, so the
 * hash only has to spread entropy downward from the high bits — the
 * golden-ratio multiply does exactly that, and the xor-shift folds the
 * well-mixed top bits into the masked range. Measurably cheaper per
 * lookup than a full splitmix64 finalizer while keeping probe lengths
 * short on the strided line addresses and dense task-ID runs the
 * simulator produces.
 */
inline std::uint64_t
flatHashMix(std::uint64_t x)
{
    x *= 0x9E3779B97F4A7C15ULL;
    return x ^ (x >> 29);
}

/**
 * Default hash: integral keys go through flatHashMix (line addresses
 * and task IDs arrive with strides and dense runs that would cluster
 * under identity hashing). Struct keys provide their own functor with
 * the same contract: full-width output with entropy in the high bits.
 */
template <typename K>
struct FlatHash {
    std::uint64_t
    operator()(const K &key) const
    {
        static_assert(std::is_integral_v<K> || std::is_enum_v<K>,
                      "provide a hash functor for non-integral keys");
        return flatHashMix(std::uint64_t(key));
    }
};

/**
 * Open-addressing robin-hood hash map.
 *
 * V must be movable; move construction/assignment must not throw (the
 * displacement chain and backward-shift erase move entries in place).
 */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
  public:
    FlatMap() noexcept = default;

    FlatMap(const FlatMap &other) { copyFrom(other); }

    FlatMap(FlatMap &&other) noexcept { stealFrom(other); }

    FlatMap &
    operator=(const FlatMap &other)
    {
        if (this != &other) {
            destroy();
            copyFrom(other);
        }
        return *this;
    }

    FlatMap &
    operator=(FlatMap &&other) noexcept
    {
        if (this != &other) {
            destroy();
            stealFrom(other);
        }
        return *this;
    }

    ~FlatMap() { destroy(); }

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }
    std::size_t capacity() const noexcept { return cap_; }
    /** Times the table grew (allocation events; steady state: 0). */
    std::uint64_t growths() const noexcept { return growths_; }

    /** Value for @p key, or nullptr. Invalidated by insert/erase. */
    V *
    find(const K &key)
    {
        if (size_ == 0)
            return nullptr;
        std::size_t idx = Hash()(key) & mask_;
        std::uint8_t d = 1;
        while (dist_[idx] >= d) {
            if (dist_[idx] == d && keys_[idx] == key)
                return &vals_[idx];
            idx = (idx + 1) & mask_;
            ++d;
        }
        return nullptr;
    }

    const V *
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool contains(const K &key) const { return find(key) != nullptr; }

    /**
     * Find-or-insert: returns (value, inserted). The value is
     * constructed from @p args only when the key is absent.
     */
    template <typename... Args>
    std::pair<V *, bool>
    emplace(const K &key, Args &&...args)
    {
        if (size_ + 1 > maxLoad())
            grow();
        std::size_t idx = Hash()(key) & mask_;
        std::uint8_t d = 1;
        while (dist_[idx] >= d) {
            if (dist_[idx] == d && keys_[idx] == key)
                return {&vals_[idx], false};
            idx = (idx + 1) & mask_;
            ++d;
        }
        V *placed = insertFresh(idx, d, K(key),
                                V(std::forward<Args>(args)...));
        ++size_;
        return {placed, true};
    }

    /** Find-or-default-insert, std::map style. */
    V &operator[](const K &key) { return *emplace(key).first; }

    /** Insert or overwrite. */
    V &
    insertOrAssign(const K &key, const V &value)
    {
        auto [v, inserted] = emplace(key, value);
        if (!inserted)
            *v = value;
        return *v;
    }

    /** Remove @p key. @return true if it was present. */
    bool
    erase(const K &key)
    {
        if (size_ == 0)
            return false;
        std::size_t idx = Hash()(key) & mask_;
        std::uint8_t d = 1;
        while (dist_[idx] >= d) {
            if (dist_[idx] == d && keys_[idx] == key) {
                eraseSlot(idx);
                return true;
            }
            idx = (idx + 1) & mask_;
            ++d;
        }
        return false;
    }

    /** Apply @p fn(const K&, V&) to every entry. No structural calls
     *  from inside @p fn. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (dist_[i])
                fn(const_cast<const K &>(keys_[i]), vals_[i]);
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (dist_[i])
                fn(const_cast<const K &>(keys_[i]),
                   const_cast<const V &>(vals_[i]));
        }
    }

    /**
     * Erase every entry matching @p pred(const K&, const V&).
     * @p pred must be a pure function of its arguments: backward-shift
     * deletion around the table's wrap point can present a surviving
     * entry to @p pred twice.
     * @return number of entries erased.
     */
    template <typename Pred>
    std::size_t
    eraseIf(Pred &&pred)
    {
        std::size_t erased = 0;
        for (std::size_t i = 0; i < cap_;) {
            if (dist_[i] &&
                pred(const_cast<const K &>(keys_[i]),
                     const_cast<const V &>(vals_[i]))) {
                eraseSlot(i); // refills slot i: re-examine, don't advance
                ++erased;
            } else {
                ++i;
            }
        }
        return erased;
    }

    /** Drop every entry; capacity is kept, so refilling allocates nothing. */
    void
    clear() noexcept
    {
        if constexpr (std::is_trivially_destructible_v<K> &&
                      std::is_trivially_destructible_v<V>) {
            // One linear wipe of the metadata bytes; element storage
            // needs no per-slot destructor walk.
            if (cap_ != 0)
                std::memset(dist_, 0, cap_);
        } else {
            for (std::size_t i = 0; i < cap_; ++i) {
                if (dist_[i]) {
                    keys_[i].~K();
                    vals_[i].~V();
                    dist_[i] = 0;
                }
            }
        }
        size_ = 0;
    }

    /** Pre-size so that @p n entries fit without growing. */
    void
    reserve(std::size_t n)
    {
        while (maxLoad() < n)
            grow();
    }

  private:
    static constexpr std::size_t kInitialCap = 16;
    /** dist_ stores probe distance + 1 in a byte; probes this long mean
     *  the table is pathologically loaded — grow instead. */
    static constexpr std::uint8_t kMaxDist = 250;

    std::size_t maxLoad() const { return cap_ - cap_ / 4; } // 3/4

    static K *
    allocK(std::size_t n)
    {
        return static_cast<K *>(::operator new(
            n * sizeof(K), std::align_val_t(alignof(K))));
    }
    static V *
    allocV(std::size_t n)
    {
        return static_cast<V *>(::operator new(
            n * sizeof(V), std::align_val_t(alignof(V))));
    }

    /**
     * Robin-hood displacement insert of a key known to be absent,
     * starting from probe position (@p idx, @p d). Returns the slot
     * where the *incoming* entry landed.
     */
    V *
    insertFresh(std::size_t idx, std::uint8_t d, K &&key, V &&val)
    {
        V *placed = nullptr;
        const K original = key; // keys are small; kept for re-find below
        K k = std::move(key);
        V v = std::move(val);
        while (true) {
            if (d >= kMaxDist) {
                // Pathological clustering: grow, re-place the carried
                // entry, and report the original entry's final slot.
                K carried_k = std::move(k);
                V carried_v = std::move(v);
                bool carried_is_original = (placed == nullptr);
                grow();
                V *slot = reinsert(std::move(carried_k),
                                   std::move(carried_v));
                if (carried_is_original)
                    return slot;
                return find(original);
            }
            if (dist_[idx] == 0) {
                ::new (keys_ + idx) K(std::move(k));
                ::new (vals_ + idx) V(std::move(v));
                dist_[idx] = d;
                return placed ? placed : &vals_[idx];
            }
            if (dist_[idx] < d) {
                std::swap(k, keys_[idx]);
                std::swap(v, vals_[idx]);
                std::swap(d, dist_[idx]);
                if (!placed)
                    placed = &vals_[idx];
            }
            idx = (idx + 1) & mask_;
            ++d;
        }
    }

    /** Displacement insert during rehash (key known absent). */
    V *
    reinsert(K &&key, V &&val)
    {
        std::size_t idx = Hash()(key) & mask_;
        return insertFresh(idx, 1, std::move(key), std::move(val));
    }

    void
    eraseSlot(std::size_t idx)
    {
        keys_[idx].~K();
        vals_[idx].~V();
        std::size_t next = (idx + 1) & mask_;
        while (dist_[next] > 1) {
            ::new (keys_ + idx) K(std::move(keys_[next]));
            ::new (vals_ + idx) V(std::move(vals_[next]));
            dist_[idx] = std::uint8_t(dist_[next] - 1);
            keys_[next].~K();
            vals_[next].~V();
            idx = next;
            next = (next + 1) & mask_;
        }
        dist_[idx] = 0;
        --size_;
    }

    void
    grow()
    {
        std::size_t new_cap = cap_ ? cap_ * 2 : kInitialCap;
        std::uint8_t *old_dist = dist_;
        K *old_keys = keys_;
        V *old_vals = vals_;
        std::size_t old_cap = cap_;

        dist_ = static_cast<std::uint8_t *>(
            ::operator new(new_cap, std::align_val_t(1)));
        for (std::size_t i = 0; i < new_cap; ++i)
            dist_[i] = 0;
        keys_ = allocK(new_cap);
        vals_ = allocV(new_cap);
        cap_ = new_cap;
        mask_ = new_cap - 1;
        ++growths_;

        for (std::size_t i = 0; i < old_cap; ++i) {
            if (old_dist[i]) {
                reinsert(std::move(old_keys[i]), std::move(old_vals[i]));
                old_keys[i].~K();
                old_vals[i].~V();
            }
        }
        release(old_dist, old_keys, old_vals);
    }

    static void
    release(std::uint8_t *dist, K *keys, V *vals) noexcept
    {
        if (dist)
            ::operator delete(dist, std::align_val_t(1));
        if (keys)
            ::operator delete(keys, std::align_val_t(alignof(K)));
        if (vals)
            ::operator delete(vals, std::align_val_t(alignof(V)));
    }

    void
    destroy() noexcept
    {
        clear();
        release(dist_, keys_, vals_);
        dist_ = nullptr;
        keys_ = nullptr;
        vals_ = nullptr;
        cap_ = 0;
        mask_ = 0;
    }

    void
    copyFrom(const FlatMap &other)
    {
        reserve(other.size_);
        other.forEach([this](const K &k, const V &v) { emplace(k, v); });
    }

    void
    stealFrom(FlatMap &other) noexcept
    {
        dist_ = other.dist_;
        keys_ = other.keys_;
        vals_ = other.vals_;
        cap_ = other.cap_;
        mask_ = other.mask_;
        size_ = other.size_;
        growths_ = other.growths_;
        other.dist_ = nullptr;
        other.keys_ = nullptr;
        other.vals_ = nullptr;
        other.cap_ = 0;
        other.mask_ = 0;
        other.size_ = 0;
        other.growths_ = 0;
    }

    std::uint8_t *dist_ = nullptr; // 0 = empty, else probe distance + 1
    K *keys_ = nullptr;
    V *vals_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::uint64_t growths_ = 0;
};

/**
 * Open-addressing hash set over FlatMap's probing scheme (the values
 * array degenerates to empty payloads the optimizer drops).
 */
template <typename K, typename Hash = FlatHash<K>>
class FlatSet
{
  public:
    /** @return true if @p key was newly inserted. */
    bool insert(const K &key) { return map_.emplace(key).second; }

    bool contains(const K &key) const { return map_.contains(key); }

    bool erase(const K &key) { return map_.erase(key); }

    std::size_t size() const noexcept { return map_.size(); }
    bool empty() const noexcept { return map_.empty(); }
    std::size_t capacity() const noexcept { return map_.capacity(); }

    void clear() noexcept { map_.clear(); }
    void reserve(std::size_t n) { map_.reserve(n); }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        map_.forEach([&fn](const K &k, const Empty &) { fn(k); });
    }

  private:
    struct Empty {};
    FlatMap<K, Empty, Hash> map_;
};

} // namespace tlsim

#endif // TLSIM_COMMON_FLAT_MAP_HPP
