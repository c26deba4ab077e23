#include "checks.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace secmem::perf
{

namespace
{

/** Recursive-descent walk of one JSON value, emitting its leaves. */
class Flattener
{
  public:
    Flattener(const std::string &s, FlatJson *out) : s_(s), out_(out) {}

    bool
    document()
    {
        if (!value(""))
            return false;
        skipSpace();
        return i_ == s_.size();
    }

  private:
    static bool
    isSpace(char c)
    {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    }

    void
    skipSpace()
    {
        while (i_ < s_.size() && isSpace(s_[i_]))
            ++i_;
    }

    bool
    accept(char c)
    {
        skipSpace();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    string(std::string *v)
    {
        if (!accept('"'))
            return false;
        v->clear();
        while (i_ < s_.size() && s_[i_] != '"') {
            if (s_[i_] == '\\' && i_ + 1 < s_.size())
                ++i_;
            v->push_back(s_[i_++]);
        }
        if (i_ == s_.size())
            return false;
        ++i_;
        return true;
    }

    static std::string
    join(const std::string &path, const std::string &key)
    {
        return path.empty() ? key : path + "." + key;
    }

    bool
    value(const std::string &path)
    {
        skipSpace();
        if (i_ == s_.size())
            return false;
        if (accept('{')) {
            if (accept('}'))
                return true;
            do {
                std::string key;
                if (!string(&key) || !accept(':') || !value(join(path, key)))
                    return false;
            } while (accept(','));
            return accept('}');
        }
        if (accept('[')) {
            if (accept(']'))
                return true;
            std::size_t k = 0;
            do {
                if (!value(join(path, std::to_string(k++))))
                    return false;
            } while (accept(','));
            return accept(']');
        }
        if (s_[i_] == '"') {
            std::string v;
            if (!string(&v))
                return false;
            (*out_)[path] = v;
            return true;
        }
        // Scalar: a number (the stats dumps may also write nan/inf), or
        // true/false/null.
        std::size_t start = i_;
        while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}' &&
               s_[i_] != ']' && !isSpace(s_[i_]))
            ++i_;
        if (i_ == start)
            return false;
        (*out_)[path] = s_.substr(start, i_ - start);
        return true;
    }

    const std::string &s_;
    FlatJson *out_;
    std::size_t i_ = 0;
};

} // namespace

bool
flattenJson(const std::string &json, FlatJson *out)
{
    out->clear();
    return Flattener(json, out).document();
}

bool
jsonNumber(const FlatJson &f, const std::string &path, double *value)
{
    auto it = f.find(path);
    if (it == f.end())
        return false;
    const char *begin = it->second.c_str();
    char *end = nullptr;
    *value = std::strtod(begin, &end);
    return end != begin && *end == '\0';
}

std::string
checkJob(const exp::JobSpec &spec, const RunOutput &out)
{
    if (out.failed)
        return "job failed: " + out.error;
    FlatJson stats;
    if (!flattenJson(out.statsJson, &stats))
        return "unparseable stats dump";

    std::string missing;
    auto stat = [&](const char *path) {
        double v = 0.0;
        if (!jsonNumber(stats, path, &v) && missing.empty())
            missing = path;
        return v;
    };
    const double loads = stat("system.loads");
    const double stores = stat("system.stores");
    const double l1Accesses = stat("l1d.accesses");
    const double l1Misses = stat("l1d.misses");
    const double l2Accesses = stat("l2.accesses");
    const double l2Misses = stat("l2.misses");
    const double l2Writebacks = stat("l2.writebacks");
    const double ctrlReads = stat("ctrl.reads");
    const double ctrlWrites = stat("ctrl.writes");
    if (!missing.empty())
        return "stat " + missing + " missing";

    if (loads + stores != l1Accesses)
        return "system.loads + system.stores != l1d.accesses";
    if (l1Misses != l2Accesses)
        return "l1d.misses != l2.accesses";
    if (l2Misses != ctrlReads)
        return "l2.misses != ctrl.reads";
    if (ctrlWrites < l2Writebacks)
        return "ctrl.writes < l2.writebacks";
    if (!(out.ipc > 0.0 && out.ipc <= spec.core.width))
        return "ipc " + std::to_string(out.ipc) + " outside (0, width]";
    if (out.instructions != spec.lengths.sim)
        return "measured " + std::to_string(out.instructions) +
               " instructions, asked for " + std::to_string(spec.lengths.sim);
    return {};
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s)
        h_ = (h_ ^ c) * 0x100000001b3ull;
    h_ = (h_ ^ '\n') * 0x100000001b3ull; // record separator
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

} // namespace secmem::perf
