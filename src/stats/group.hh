/**
 * @file
 * Hierarchical statistic registration and reporting.
 */

#ifndef EBCP_STATS_GROUP_HH
#define EBCP_STATS_GROUP_HH

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "stats/statistic.hh"

namespace ebcp
{

namespace ckpt
{
class Archiver;
}

class JsonWriter;

/**
 * A named collection of statistics and child groups.
 *
 * Components own their stats as plain members and register pointers
 * here; the group never owns the registered objects (they live exactly
 * as long as their component).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a statistic; returns it for chaining. */
    template <typename S>
    S &
    add(S &stat)
    {
        stats_.push_back(&stat);
        return stat;
    }

    /** Register a child group. */
    void addChild(StatGroup &child) { children_.push_back(&child); }

    /** Reset all registered stats, recursively. */
    void resetAll();

    /**
     * Locate a statistic by dot-separated path relative to this group
     * (e.g. "corr_table.lookups"), or nullptr if absent.
     *
     * This is a one-time *setup* lookup for tools and benches that
     * need counters by name; it walks the registry linearly. Hot paths
     * must never call it per event -- components bump their counters
     * through the member objects registered once at construction, and
     * callers that sample repeatedly should cache the returned
     * pointer.
     */
    const StatBase *find(std::string_view path) const;

    /** find() and downcast to Scalar; nullptr if absent or not one. */
    const Scalar *
    findScalar(std::string_view path) const
    {
        return dynamic_cast<const Scalar *>(find(path));
    }

    /** Dump "group.stat = value # desc" lines, recursively. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Emit this group as one JSON object value: each statistic as a
     * member (Scalars as integers, Averages/Distributions as small
     * objects), each child group as a nested object.
     */
    void dumpJson(JsonWriter &w) const;

    const std::string &name() const { return name_; }
    /** Rename the group (e.g. to tell apart identical components). */
    void setName(std::string name) { name_ = std::move(name); }
    const std::vector<StatBase *> &stats() const { return stats_; }
    const std::vector<StatGroup *> &children() const { return children_; }

    /**
     * Serialize or restore the statistics registered directly on this
     * group (children are component-owned and serialize with their
     * components, so the walk deliberately does not recurse).
     * Registration order is deterministic (components register their
     * stats at construction), so the walk order matches between save
     * and load; stat names travel with the values and are verified on
     * load to catch registry skew.
     */
    void ckpt(ckpt::Archiver &ar);

  private:
    std::string name_;
    std::vector<StatBase *> stats_;
    std::vector<StatGroup *> children_;
};

} // namespace ebcp

#endif // EBCP_STATS_GROUP_HH
