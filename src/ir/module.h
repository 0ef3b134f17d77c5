/**
 * @file
 * Modules: functions, globals, the constant pool and memory layout.
 */

#ifndef BITSPEC_IR_MODULE_H_
#define BITSPEC_IR_MODULE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ir/function.h"
#include "support/bits.h"
#include "support/error.h"

namespace bitspec
{

/**
 * A global array or scalar in the flat data segment. Globals are the
 * only addressable storage in the IR; workload inputs are written into
 * global arrays before execution (standing in for MiBench input files).
 */
class Global
{
  public:
    Global(std::string name, unsigned elem_bits, size_t elem_count)
        : name_(std::move(name)), elemBits_(elem_bits),
          elemCount_(elem_count)
    {
        bsAssert(elem_bits == 8 || elem_bits == 16 || elem_bits == 32 ||
                 elem_bits == 64, "global element width must be 8..64");
        data_.resize(sizeBytes(), 0);
    }

    const std::string &name() const { return name_; }
    unsigned elemBits() const { return elemBits_; }
    size_t elemCount() const { return elemCount_; }
    size_t sizeBytes() const { return elemCount_ * (elemBits_ / 8); }

    /** Byte image of the initial contents (little endian). */
    const std::vector<uint8_t> &data() const { return data_; }

    /** Assigned base address; valid after Module::layoutGlobals(). */
    uint32_t address() const { return address_; }
    void setAddress(uint32_t a) { address_ = a; }

    /** Replace the whole byte image (size must match). */
    void
    setData(const std::vector<uint8_t> &bytes)
    {
        if (bytes.size() != data_.size())
            panic("global image size mismatch: " + name_);
        data_ = bytes;
    }

    /** Overwrite element @p index with @p value (little endian). */
    void
    setElem(size_t index, uint64_t value)
    {
        if (index >= elemCount_)
            panic("global store out of range: " + name_);
        unsigned bytes = elemBits_ / 8;
        for (unsigned b = 0; b < bytes; ++b)
            data_[index * bytes + b] =
                static_cast<uint8_t>(value >> (8 * b));
    }

    uint64_t
    elem(size_t index) const
    {
        if (index >= elemCount_)
            panic("global load out of range: " + name_);
        unsigned bytes = elemBits_ / 8;
        uint64_t v = 0;
        for (unsigned b = 0; b < bytes; ++b)
            v |= static_cast<uint64_t>(data_[index * bytes + b]) << (8 * b);
        return v;
    }

    /** Zero the contents. */
    void clear() { std::fill(data_.begin(), data_.end(), 0); }

  private:
    std::string name_;
    unsigned elemBits_;
    size_t elemCount_;
    std::vector<uint8_t> data_;
    uint32_t address_ = 0;
};

/** A whole program: functions, globals, constants. */
class Module
{
  public:
    /** Globals are laid out starting here so that addresses never look
     *  narrow to the profiler (paper: addresses stay at full width). */
    static constexpr uint32_t kGlobalBase = 0x10000;

    Function *
    addFunction(std::string name, Type ret, std::vector<Type> params)
    {
        funcs_.push_back(std::make_unique<Function>(
            std::move(name), ret, std::move(params)));
        funcs_.back()->setParent(this);
        return funcs_.back().get();
    }

    Function *
    getFunction(const std::string &name) const
    {
        for (const auto &f : funcs_)
            if (f->name() == name)
                return f.get();
        return nullptr;
    }

    const std::vector<std::unique_ptr<Function>> &functions() const
    {
        return funcs_;
    }

    Global *
    addGlobal(std::string name, unsigned elem_bits, size_t elem_count)
    {
        globals_.push_back(std::make_unique<Global>(
            std::move(name), elem_bits, elem_count));
        return globals_.back().get();
    }

    Global *
    getGlobal(const std::string &name) const
    {
        for (const auto &g : globals_)
            if (g->name() == name)
                return g.get();
        return nullptr;
    }

    const std::vector<std::unique_ptr<Global>> &globals() const
    {
        return globals_;
    }

    /** Deduplicated integer constant of the given type. */
    Constant *
    getConst(Type type, uint64_t value)
    {
        uint64_t truncated = truncTo(value, type.bits);
        auto key = std::make_pair(type.bits, truncated);
        auto it = constants_.find(key);
        if (it != constants_.end())
            return it->second.get();
        auto c = std::make_unique<Constant>(type, truncated);
        Constant *raw = c.get();
        constants_.emplace(key, std::move(c));
        return raw;
    }

    /** The i32 address value of @p g (deduplicated). */
    GlobalRef *
    getGlobalRef(Global *g)
    {
        auto it = globalRefs_.find(g);
        if (it != globalRefs_.end())
            return it->second.get();
        auto r = std::make_unique<GlobalRef>(g);
        r->setName(g->name());
        GlobalRef *raw = r.get();
        globalRefs_.emplace(g, std::move(r));
        return raw;
    }

    /**
     * Assign addresses to all globals (8-byte aligned, from kGlobalBase).
     * Returns one past the last used address.
     */
    uint32_t
    layoutGlobals()
    {
        uint32_t addr = kGlobalBase;
        for (auto &g : globals_) {
            g->setAddress(addr);
            addr += static_cast<uint32_t>((g->sizeBytes() + 7) & ~size_t{7});
        }
        return addr;
    }

  private:
    std::vector<std::unique_ptr<Function>> funcs_;
    std::vector<std::unique_ptr<Global>> globals_;
    std::map<std::pair<unsigned, uint64_t>, std::unique_ptr<Constant>>
        constants_;
    std::map<Global *, std::unique_ptr<GlobalRef>> globalRefs_;
};

} // namespace bitspec

#endif // BITSPEC_IR_MODULE_H_
