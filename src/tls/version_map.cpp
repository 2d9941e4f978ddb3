#include "tls/version_map.hpp"

#include <algorithm>
#include <cstdio>

#include "common/log.hpp"
#include "common/trace.hpp"

namespace tlsim::tls {

std::string
describeVersion(const VersionInfo *v)
{
    if (!v)
        return "(null)";
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "producer=%llu inc=%u committed=%d inMemory=%d "
                  "cacheOwner=%d inOverflow=%d mhbProc=%d",
                  (unsigned long long)v->tag.producer,
                  v->tag.incarnation, int(v->committed), int(v->inMemory),
                  int(v->cacheOwner), int(v->inOverflow),
                  int(v->mhbProc));
    return buf;
}

VersionInfo *
VersionMap::find(Addr line, mem::VersionTag tag)
{
    VersionList *list = lines_.find(line);
    return list ? findIn(*list, tag) : nullptr;
}

VersionInfo *
VersionMap::memoryHolder(Addr line)
{
    VersionList *list = lines_.find(line);
    if (!list)
        return nullptr;
    for (auto rit = list->rbegin(); rit != list->rend(); ++rit) {
        if (rit->inMemory)
            return &*rit;
    }
    return nullptr;
}

VersionInfo *
VersionMap::latestCommitted(Addr line)
{
    VersionList *list = lines_.find(line);
    if (!list)
        return nullptr;
    for (auto rit = list->rbegin(); rit != list->rend(); ++rit) {
        if (rit->committed)
            return &*rit;
    }
    return nullptr;
}

VersionList &
VersionMap::versionsOf(Addr line)
{
    return lines_[line];
}

VersionInfo &
VersionMap::create(Addr line, mem::VersionTag tag, ProcId owner)
{
    auto &vec = lines_[line];
    VersionInfo *pos = lowerBound(vec, tag.producer);
    if (pos != vec.end() && pos->tag.producer == tag.producer)
        panic("VersionMap::create: duplicate producer for line");
    VersionInfo info;
    info.tag = tag;
    info.cacheOwner = owner;
    ++totalVersions_;
    TLSIM_TRACE_EVENT(trace::Kind::VersionCreate, owner, tag.producer,
                      line, tag.incarnation);
    return *vec.insert(pos, info);
}

void
VersionMap::remove(Addr line, mem::VersionTag tag)
{
    VersionList *list = lines_.find(line);
    if (!list)
        return;
    if (VersionInfo *v = findIn(*list, tag)) {
        TLSIM_TRACE_EVENT(trace::Kind::VersionRemove, v->cacheOwner,
                          tag.producer, line, tag.incarnation);
        unspill(*v);
        list->erase(v);
        --totalVersions_;
    }
    if (list->empty())
        lines_.erase(line);
}

void
VersionMap::commit(Addr line, VersionInfo &v)
{
    v.committed = true;
    check(line, v);
}

void
VersionMap::spill(Addr line, VersionInfo &v)
{
    if (v.inOverflow || v.cacheOwner == kNoProc)
        panic("VersionMap::spill: no L2 copy to spill: " +
              describeVersion(&v));
    if (v.cacheOwner >= spilled_.size())
        spilled_.resize(std::size_t(v.cacheOwner) + 1, 0);
    ++spilled_[v.cacheOwner];
    v.inOverflow = true;
    TLSIM_TRACE_EVENT(trace::Kind::VersionOverflow, ~0u, v.tag.producer,
                      line, v.tag.incarnation);
    check(line, v);
}

void
VersionMap::refill(Addr line, VersionInfo &v, ProcId proc)
{
    if (v.inOverflow && v.cacheOwner != proc)
        panic("VersionMap::refill: overflowed version refilled by "
              "another processor: " + describeVersion(&v));
    unspill(v);
    v.cacheOwner = proc;
    check(line, v);
}

VersionInfo *
VersionMap::writeBack(Addr line, VersionInfo *v)
{
    VersionInfo *old = moveMemoryHolder(line, v);
    if (v) {
        unspill(*v);
        v->cacheOwner = kNoProc;
        check(line, *v);
    }
    if (old && merging_ != Merging::FMM)
        check(line, *old);
    return old;
}

VersionInfo *
VersionMap::restore(Addr line, VersionInfo *v)
{
    if (merging_ != Merging::FMM)
        panic("VersionMap::restore: recovery outside FMM");
    return moveMemoryHolder(line, v);
}

void
VersionMap::dropCopy(Addr line, VersionInfo &v)
{
    unspill(v);
    v.cacheOwner = kNoProc;
    check(line, v);
}

void
VersionMap::parkInMhb(Addr line, VersionInfo &v, ProcId proc)
{
    v.mhbProc = proc;
    check(line, v);
}

VersionInfo *
VersionMap::moveMemoryHolder(Addr line, VersionInfo *holder)
{
    VersionInfo *old = memoryHolder(line);
    if (old == holder)
        return nullptr;
    if (old)
        old->inMemory = false;
    if (holder)
        holder->inMemory = true;
    return old;
}

void
VersionMap::unspill(VersionInfo &v)
{
    if (!v.inOverflow)
        return;
    --spilled_[v.cacheOwner];
    v.inOverflow = false;
}

void
VersionMap::check(Addr line, const VersionInfo &v)
{
    const bool fmm = merging_ == Merging::FMM;
    const char *why = nullptr;
    if (v.inOverflow && v.cacheOwner == kNoProc) {
        why = "in an overflow area without an owner";
    } else if (!fmm && v.mhbProc != kNoProc) {
        why = "in an MHB under AMM";
    } else if (!fmm && v.inMemory && v.cacheOwner != kNoProc) {
        why = "both memory's holder and cached under AMM";
    } else if (!v.inMemory && v.cacheOwner == kNoProc &&
               v.mhbProc == kNoProc) {
        // Only a committed version that a later committed version
        // supersedes may be left with no copy anywhere.
        bool superseded = false;
        if (const VersionList *list = v.committed ? listOf(line)
                                                  : nullptr) {
            for (auto rit = list->rbegin();
                 rit != list->rend() && rit->tag.producer > v.tag.producer;
                 ++rit)
                superseded = superseded || rit->committed;
        }
        if (!superseded)
            why = "left with no location";
    }
    if (why) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " (line 0x%llx): ",
                      (unsigned long long)line);
        panic(std::string("VersionMap: version ") + why + buf +
              describeVersion(&v));
    }
}

void
VersionMap::clear()
{
    lines_.clear();
    totalVersions_ = 0;
    spilled_.clear();
}

} // namespace tlsim::tls
