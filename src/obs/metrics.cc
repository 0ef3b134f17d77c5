#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "support/env.h"
#include "support/error.h"
#include "support/log.h"
#include "support/str.h"

namespace bitspec
{

namespace
{

/** Canonical instrument key: name{k=v,k=v} with labels sorted. */
std::string
keyOf(const std::string &name, const MetricsRegistry::Labels &labels)
{
    if (labels.empty())
        return name;
    MetricsRegistry::Labels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string key = name + "{";
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            key += ",";
        key += sorted[i].first + "=" + sorted[i].second;
    }
    key += "}";
    return key;
}

std::string
fmtNum(double v)
{
    char buf[48];
    // Integral values print without a fraction so counters read
    // naturally in both sinks.
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 1e15) {
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(v));
    } else {
        std::snprintf(buf, sizeof buf, "%.6g", v);
    }
    return buf;
}

/** Reads BITSPEC_METRICS once at static-init time and registers the
 *  at-exit export of the global registry as JSON lines (the trace
 *  sink's BITSPEC_TRACE twin). */
struct EnvInit
{
    EnvInit()
    {
        std::string path = env::getString("BITSPEC_METRICS");
        if (path.empty())
            return;
        static std::string s_path;
        s_path = path;
        // Construct the singleton *before* registering the handler:
        // its destructor then outlives the export (atexit runs in
        // reverse registration order).
        MetricsRegistry::global();
        std::atexit([] {
            std::ofstream os(s_path);
            if (!os) {
                log::error("BITSPEC_METRICS: cannot write %s",
                           s_path.c_str());
                return;
            }
            MetricsRegistry::global().writeJsonLines(os);
            log::info("BITSPEC_METRICS: wrote %s", s_path.c_str());
        });
    }
};

EnvInit g_envInit;

} // namespace

MetricsRegistry &
MetricsRegistry::global()
{
    static MetricsRegistry r;
    return r;
}

MetricsRegistry::Instrument &
MetricsRegistry::get(const std::string &name, const Labels &labels,
                     MetricSample::Kind kind)
{
    const std::string key = keyOf(name, labels);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = instruments_.find(key);
    if (it != instruments_.end()) {
        bsAssert(it->second.kind == kind,
                 "metric re-registered with a different kind: " + key);
        return it->second;
    }
    Instrument inst;
    inst.name = name;
    inst.labels = labels;
    std::sort(inst.labels.begin(), inst.labels.end());
    inst.kind = kind;
    switch (kind) {
      case MetricSample::Kind::Counter:
        inst.counter = std::make_unique<Counter>();
        break;
      case MetricSample::Kind::Gauge:
        inst.gauge = std::make_unique<Gauge>();
        break;
      case MetricSample::Kind::Histogram:
        inst.histogram = std::make_unique<HistogramMetric>();
        break;
    }
    return instruments_.emplace(key, std::move(inst)).first->second;
}

Counter &
MetricsRegistry::counter(const std::string &name, const Labels &labels)
{
    return *get(name, labels, MetricSample::Kind::Counter).counter;
}

Gauge &
MetricsRegistry::gauge(const std::string &name, const Labels &labels)
{
    return *get(name, labels, MetricSample::Kind::Gauge).gauge;
}

HistogramMetric &
MetricsRegistry::histogram(const std::string &name, const Labels &labels)
{
    return *get(name, labels, MetricSample::Kind::Histogram).histogram;
}

std::vector<MetricSample>
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<MetricSample> out;
    out.reserve(instruments_.size());
    for (const auto &[key, inst] : instruments_) {
        MetricSample s;
        s.name = inst.name;
        s.labels = inst.labels;
        s.kind = inst.kind;
        switch (inst.kind) {
          case MetricSample::Kind::Counter:
            s.value = static_cast<double>(inst.counter->value());
            break;
          case MetricSample::Kind::Gauge:
            s.value = inst.gauge->value();
            break;
          case MetricSample::Kind::Histogram:
            s.histogram = inst.histogram->snapshotValues();
            s.value = s.histogram.sum();
            break;
        }
        out.push_back(std::move(s));
    }
    // Sort by (name, labels), NOT by map key: the key embeds labels as
    // "name{k=v}" and '{' compares above '.', so "foo{a=1}" would sort
    // after "foo.bar" — splitting a metric family apart in the output.
    std::sort(out.begin(), out.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  if (a.name != b.name)
                      return a.name < b.name;
                  return a.labels < b.labels;
              });
    return out;
}

void
MetricsRegistry::writeJsonLines(std::ostream &os) const
{
    for (const MetricSample &s : snapshot()) {
        os << "{\"name\":\"";
        os << jsonEscape(s.name);
        os << "\"";
        if (!s.labels.empty()) {
            os << ",\"labels\":{";
            for (size_t i = 0; i < s.labels.size(); ++i) {
                if (i)
                    os << ",";
                os << "\"";
                os << jsonEscape(s.labels[i].first);
                os << "\":\"";
                os << jsonEscape(s.labels[i].second);
                os << "\"";
            }
            os << "}";
        }
        switch (s.kind) {
          case MetricSample::Kind::Counter:
            os << ",\"kind\":\"counter\",\"value\":" << fmtNum(s.value);
            break;
          case MetricSample::Kind::Gauge:
            os << ",\"kind\":\"gauge\",\"value\":" << fmtNum(s.value);
            break;
          case MetricSample::Kind::Histogram:
            os << ",\"kind\":\"histogram\",\"count\":"
               << s.histogram.count()
               << ",\"sum\":" << fmtNum(s.histogram.sum())
               << ",\"min\":" << fmtNum(s.histogram.min())
               << ",\"mean\":" << fmtNum(s.histogram.mean())
               << ",\"p50\":" << fmtNum(s.histogram.p50())
               << ",\"p95\":" << fmtNum(s.histogram.p95())
               << ",\"p99\":" << fmtNum(s.histogram.p99())
               << ",\"max\":" << fmtNum(s.histogram.max());
            break;
        }
        os << "}\n";
    }
}

void
MetricsRegistry::writeTable(std::ostream &os) const
{
    std::vector<MetricSample> samples = snapshot();
    size_t width = 8;
    std::vector<std::string> keys;
    keys.reserve(samples.size());
    for (const MetricSample &s : samples) {
        std::string key = s.name;
        if (!s.labels.empty()) {
            key += "{";
            for (size_t i = 0; i < s.labels.size(); ++i) {
                if (i)
                    key += ",";
                key += s.labels[i].first + "=" + s.labels[i].second;
            }
            key += "}";
        }
        width = std::max(width, key.size());
        keys.push_back(std::move(key));
    }
    for (size_t i = 0; i < samples.size(); ++i) {
        const MetricSample &s = samples[i];
        os << keys[i] << std::string(width - keys[i].size() + 2, ' ');
        switch (s.kind) {
          case MetricSample::Kind::Counter:
            os << fmtNum(s.value) << "\n";
            break;
          case MetricSample::Kind::Gauge:
            os << fmtNum(s.value) << "\n";
            break;
          case MetricSample::Kind::Histogram:
            os << "count=" << s.histogram.count()
               << " mean=" << fmtNum(s.histogram.mean())
               << " p50=" << fmtNum(s.histogram.p50())
               << " p95=" << fmtNum(s.histogram.p95())
               << " p99=" << fmtNum(s.histogram.p99())
               << " max=" << fmtNum(s.histogram.max()) << "\n";
            break;
        }
    }
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    instruments_.clear();
}

} // namespace bitspec
