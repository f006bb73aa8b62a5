#include "os/pagemap.hh"

#include "common/logging.hh"

namespace rho
{

AddressSpace::AddressSpace(BuddyAllocator &buddy_) : buddy(buddy_)
{
}

AddressSpace::~AddressSpace()
{
    for (auto [va, pa] : pages)
        buddy.free(pa, 0);
}

std::optional<VirtAddr>
AddressSpace::mmap(std::uint64_t bytes)
{
    std::uint64_t npages = (bytes + pageBytes - 1) / pageBytes;
    VirtAddr base = nextVirt;
    for (std::uint64_t i = 0; i < npages; ++i) {
        auto pa = buddy.allocPage();
        if (!pa) {
            // Out of physical memory (or injected allocation fault):
            // unwind the partial mapping so the caller sees a clean
            // failure instead of a crash.
            warn("AddressSpace::mmap: out of physical memory");
            for (std::uint64_t j = 0; j < i; ++j) {
                VirtAddr va = base + j * pageBytes;
                auto it = pages.find(va);
                buddy.free(it->second, 0);
                pages.erase(it);
            }
            return std::nullopt;
        }
        VirtAddr va = base + i * pageBytes;
        pages[va] = *pa;
    }
    nextVirt = base + npages * pageBytes + pageBytes; // guard gap
    return base;
}

std::optional<PhysAddr>
AddressSpace::virtToPhys(VirtAddr va) const
{
    auto it = pages.find(pageOf(va));
    if (it == pages.end())
        return std::nullopt;
    return it->second + (va & (pageBytes - 1));
}

PhysPool::PhysPool(BuddyAllocator &buddy, double fraction)
    : memBytes(buddy.memBytes())
{
    std::uint64_t total_pages = memBytes / pageBytes;
    ownedBitmap.assign(total_pages, false);
    std::uint64_t target =
        static_cast<std::uint64_t>(fraction * total_pages);
    unsigned misses = 0;
    while (nPages < target) {
        // Grab large blocks first (fast and realistic: the kernel
        // serves large anonymous mappings from high orders).
        auto blk = buddy.alloc(BuddyAllocator::maxOrder);
        unsigned order = BuddyAllocator::maxOrder;
        if (!blk) {
            blk = buddy.allocPage();
            order = 0;
            if (!blk) {
                // A single failure may be an injected transient fault
                // rather than true exhaustion; give up only after a
                // few consecutive misses.
                if (++misses >= 4)
                    break;
                continue;
            }
        }
        misses = 0;
        std::uint64_t npages = 1ULL << order;
        std::uint64_t first = *blk / pageBytes;
        std::fill(ownedBitmap.begin() + first,
                  ownedBitmap.begin() + first + npages, true);
        blocks.push_back({nPages, *blk});
        nPages += npages;
    }
}

std::optional<PhysAddr>
PhysPool::pairBase(Rng &rng, std::uint64_t diff_mask,
                   unsigned max_tries) const
{
    if (empty())
        return std::nullopt;
    for (unsigned i = 0; i < max_tries; ++i) {
        PhysAddr a = randomAddr(rng);
        PhysAddr b = a ^ diff_mask;
        if (b < memBytes && contains(b))
            return a;
    }
    return std::nullopt;
}

double
PhysPool::coverage() const
{
    return static_cast<double>(nPages) / (memBytes / pageBytes);
}

} // namespace rho
