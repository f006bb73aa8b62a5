/**
 * @file
 * Process address-space model with a /proc/pid/pagemap-style
 * virtual-to-physical query interface, plus the large physical page
 * pool the reverse-engineering phase allocates.
 */

#ifndef RHO_OS_PAGEMAP_HH
#define RHO_OS_PAGEMAP_HH

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "os/buddy_allocator.hh"

namespace rho
{

/**
 * A process's mapped pages. mmap() takes frames from the buddy
 * allocator; virtToPhys models the root-only pagemap interface.
 */
class AddressSpace
{
  public:
    explicit AddressSpace(BuddyAllocator &buddy);
    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    /**
     * Map `bytes` of memory in 4 KiB pages.
     * @return the virtual base, or nullopt if physical memory ran out
     *         (any partially mapped pages are released again).
     */
    std::optional<VirtAddr> mmap(std::uint64_t bytes);

    /** pagemap lookup (requires root on real systems). */
    std::optional<PhysAddr> virtToPhys(VirtAddr va) const;

    std::uint64_t mappedPages() const { return pages.size(); }

  private:
    BuddyAllocator &buddy;
    std::map<VirtAddr, PhysAddr> pages;       // per page base
    VirtAddr nextVirt = 0x7f0000000000ULL;
};

/**
 * The reverse-engineering memory pool: a large fraction of physical
 * memory owned in 4 KiB pages, with fast membership and sampling.
 *
 * The pool is stored as the buddy blocks it was built from, in
 * allocation order, so construction costs one entry per block rather
 * than one per page. Pages are numbered consecutively through the
 * blocks; randomAddr() draws a page number and maps it back to its
 * block.
 */
class PhysPool
{
  public:
    /**
     * Allocate pages until `fraction` of physical memory is owned
     * (or the allocator runs dry). The pool may end up empty (tiny
     * fraction, or an allocator that fails from the start).
     */
    PhysPool(BuddyAllocator &buddy, double fraction);

    /** Does the pool own the page containing pa? */
    bool
    contains(PhysAddr pa) const
    {
        std::uint64_t idx = pa / pageBytes;
        return idx < ownedBitmap.size() && ownedBitmap[idx];
    }

    /**
     * A uniformly random owned byte address. The pool must not be
     * empty (see empty()).
     */
    PhysAddr
    randomAddr(Rng &rng) const
    {
        if (empty())
            panic("PhysPool::randomAddr: empty pool");
        std::uint64_t k = rng.uniformInt(0, nPages - 1);
        // The last block whose first page index is <= k holds page k.
        auto it = std::upper_bound(
            blocks.begin(), blocks.end(), k,
            [](std::uint64_t v, const Block &b) { return v < b.firstPage; });
        --it;
        PhysAddr page = it->base + (k - it->firstPage) * pageBytes;
        return page + rng.uniformInt(0, pageBytes - 1);
    }

    /**
     * Find an owned pair differing exactly in the given bit mask.
     * @return base address, or nullopt after max_tries failures (at
     *         once for an empty pool).
     */
    std::optional<PhysAddr> pairBase(Rng &rng, std::uint64_t diff_mask,
                                     unsigned max_tries = 4096) const;

    double coverage() const;
    std::uint64_t ownedPages() const { return nPages; }
    bool empty() const { return nPages == 0; }

  private:
    /** One owned buddy block. */
    struct Block
    {
        std::uint64_t firstPage; //!< pool page index of its first page
        PhysAddr base;
    };

    std::vector<bool> ownedBitmap;
    std::vector<Block> blocks; //!< allocation order; firstPage ascending
    std::uint64_t nPages = 0;
    std::uint64_t memBytes;
};

} // namespace rho

#endif // RHO_OS_PAGEMAP_HH
