#include "ckpt/checkpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <unistd.h>

#include "util/crc32.hh"

namespace ebcp::ckpt
{

StatusOr<CkptPolicy>
ckptPolicyFromName(const std::string &name)
{
    if (name == "strict")
        return CkptPolicy::Strict;
    if (name == "rebuild")
        return CkptPolicy::Rebuild;
    return invalidArgError("unknown ckpt_policy '", name,
                           "' (expected strict or rebuild)");
}

const char *
ckptPolicyName(CkptPolicy policy)
{
    return policy == CkptPolicy::Strict ? "strict" : "rebuild";
}

namespace
{

void
packU32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

void
packU64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<char>(v >> (8 * i)));
}

/** Overwrite the @p width little-endian bytes at @p at with @p v. */
void
patchLe(std::string &out, std::size_t at, std::uint64_t v, unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        out[at + i] = static_cast<char>(v >> (8 * i));
}

/** Header bytes covered by the header CRC: magic, version,
 * fingerprint and section count. */
constexpr std::size_t kHeaderLen = sizeof kCkptMagic + 4 + 8 + 4;

class Cursor
{
  public:
    explicit Cursor(std::string_view buf) : buf_(buf) {}

    std::size_t remaining() const { return buf_.size() - pos_; }

    bool
    take(void *dst, std::size_t len)
    {
        if (len > remaining())
            return false;
        std::memcpy(dst, buf_.data() + pos_, len);
        pos_ += len;
        return true;
    }

    bool
    u32(std::uint32_t &v)
    {
        unsigned char b[4];
        if (!take(b, 4))
            return false;
        v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= std::uint32_t{b[i]} << (8 * i);
        return true;
    }

    bool
    u64(std::uint64_t &v)
    {
        unsigned char b[8];
        if (!take(b, 8))
            return false;
        v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= std::uint64_t{b[i]} << (8 * i);
        return true;
    }

    /** The next @p len bytes, as a view into the buffer. */
    bool
    view(std::string_view &v, std::size_t len)
    {
        if (len > remaining())
            return false;
        v = buf_.substr(pos_, len);
        pos_ += len;
        return true;
    }

  private:
    std::string_view buf_;
    std::size_t pos_ = 0;
};

} // namespace

CheckpointWriter::CheckpointWriter(std::uint64_t fingerprint)
{
    out_.append(kCkptMagic, sizeof kCkptMagic);
    packU32(out_, kCkptFormatVersion);
    packU64(out_, fingerprint);
    packU32(out_, 0); // section count, patched by serialize()
    packU32(out_, 0); // header CRC, patched by serialize()
}

Status
CheckpointWriter::section(const std::string &name,
                          const std::function<void(Archiver &)> &fill)
{
    if (!status_.ok())
        return status_;
    for (const std::string &n : names_) {
        if (n == name) {
            status_ = invalidArgError("duplicate checkpoint section '",
                                      name, "'");
            return status_;
        }
    }
    const std::size_t start = out_.size();
    packU32(out_, static_cast<std::uint32_t>(name.size()));
    out_.append(name);
    const std::size_t len_at = out_.size();
    packU64(out_, 0); // payload length, patched below
    packU32(out_, 0); // payload CRC, patched below
    const std::size_t payload_at = out_.size();
    Archiver ar = Archiver::saver(out_);
    fill(ar);
    if (!ar.ok()) {
        status_ = ar.status().withContext("checkpoint section '" + name +
                                          "'");
        out_.resize(start);
        return status_;
    }
    const std::size_t len = out_.size() - payload_at;
    patchLe(out_, len_at, len, 8);
    patchLe(out_, len_at + 8, crc32(out_.data() + payload_at, len), 4);
    names_.push_back(name);
    return status_;
}

StatusOr<std::string>
CheckpointWriter::serialize()
{
    if (!status_.ok())
        return status_;
    patchLe(out_, kHeaderLen - 4, names_.size(), 4);
    patchLe(out_, kHeaderLen, crc32(out_.data(), kHeaderLen), 4);
    status_ = invalidArgError("checkpoint writer already serialized");
    return std::move(out_);
}

Status
CheckpointWriter::writeAtomic(const std::string &path)
{
    StatusOr<std::string> data = serialize();
    if (!data.ok())
        return data.status();
    return atomicWriteFile(path, data.value());
}

StatusOr<CheckpointReader>
CheckpointReader::fromBuffer(const std::string &buffer,
                             std::uint64_t expect_fingerprint)
{
    Cursor cur(buffer);
    char magic[sizeof kCkptMagic];
    if (!cur.take(magic, sizeof magic))
        return corruptionError("checkpoint shorter than its magic (",
                               buffer.size(), " bytes)");
    if (std::memcmp(magic, kCkptMagic, sizeof magic) != 0)
        return corruptionError("bad checkpoint magic (not an EBCP "
                               "checkpoint)");
    std::uint32_t version = 0, count = 0, header_crc = 0;
    std::uint64_t fingerprint = 0;
    if (!cur.u32(version) || !cur.u64(fingerprint) || !cur.u32(count))
        return corruptionError("checkpoint header truncated");
    if (!cur.u32(header_crc))
        return corruptionError("checkpoint header truncated");
    const std::uint32_t want = crc32(buffer.data(), kHeaderLen);
    if (header_crc != want)
        return corruptionError("checkpoint header CRC mismatch (stored ",
                               header_crc, ", computed ", want, ")");
    if (version != kCkptFormatVersion)
        return invalidArgError("checkpoint format version ", version,
                               " is not the supported version ",
                               kCkptFormatVersion);
    if (fingerprint != expect_fingerprint)
        return invalidArgError(
            "checkpoint configuration fingerprint mismatch: checkpoint "
            "was taken under a different SimConfig/prefetcher setup");

    // Every section costs at least 16 bytes of framing (name length,
    // payload length, payload CRC), so a section count the remaining
    // bytes cannot possibly hold is corruption up front -- not a loop
    // that discovers truncation on iteration N.
    constexpr std::size_t kMinSectionBytes = 16;
    if (count > cur.remaining() / kMinSectionBytes)
        return corruptionError("checkpoint claims ", count,
                               " sections but only ", cur.remaining(),
                               " bytes follow the header");
    // Section names are short identifiers ("sim", "trace_source");
    // a multi-kilobyte length field is corrupt even when the buffer
    // happens to be big enough to satisfy the allocation.
    constexpr std::uint32_t kMaxSectionName = 256;

    CheckpointReader r;
    r.fingerprint_ = fingerprint;
    r.sections_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t name_len = 0, payload_crc = 0;
        std::uint64_t payload_len = 0;
        Section s;
        if (!cur.u32(name_len))
            return corruptionError("checkpoint section ", i,
                                   " truncated");
        if (name_len > kMaxSectionName)
            return corruptionError("checkpoint section ", i,
                                   " name length ", name_len,
                                   " exceeds the ", kMaxSectionName,
                                   "-byte cap");
        if (!cur.view(s.name, name_len) || !cur.u64(payload_len) ||
            !cur.u32(payload_crc) ||
            !cur.view(s.payload, static_cast<std::size_t>(payload_len)))
            return corruptionError("checkpoint section ", i,
                                   " truncated");
        const std::uint32_t got =
            crc32(s.payload.data(), s.payload.size());
        if (got != payload_crc)
            return corruptionError("checkpoint section '", s.name,
                                   "' CRC mismatch (stored ",
                                   payload_crc, ", computed ", got, ")");
        r.sections_.push_back(s);
    }
    if (cur.remaining() != 0)
        return corruptionError("checkpoint holds ", cur.remaining(),
                               " trailing bytes after the last section");
    return r;
}

StatusOr<CheckpointReader>
CheckpointReader::fromFile(const std::string &path,
                           std::uint64_t expect_fingerprint)
{
    StatusOr<std::string> data = readFile(path);
    if (!data.ok())
        return data.status();
    // The bytes live on the heap, shared by every copy of the reader,
    // so no move or copy can leave a section view dangling.
    auto owned = std::make_shared<const std::string>(data.take());
    StatusOr<CheckpointReader> r = fromBuffer(*owned, expect_fingerprint);
    if (!r.ok())
        return r.status().withContext(path);
    r.value().owned_ = std::move(owned);
    return r;
}

const CheckpointReader::Section *
CheckpointReader::find(const std::string &name) const
{
    for (const Section &s : sections_)
        if (s.name == name)
            return &s;
    return nullptr;
}

bool
CheckpointReader::hasSection(const std::string &name) const
{
    return find(name) != nullptr;
}

Status
CheckpointReader::section(const std::string &name,
                          const std::function<void(Archiver &)> &load) const
{
    const Section *s = find(name);
    if (!s)
        return corruptionError("checkpoint is missing section '", name,
                               "'");
    Archiver ar = Archiver::loader(s->payload.data(), s->payload.size());
    load(ar);
    if (!ar.ok())
        return ar.status().withContext("checkpoint section '" + name +
                                       "'");
    if (ar.remaining() != 0)
        return corruptionError("checkpoint section '", name, "' has ",
                               ar.remaining(),
                               " unconsumed bytes (layout skew)");
    return Status();
}

Status
atomicWriteFile(const std::string &path, const std::string &data)
{
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return ioError("cannot create '", tmp, "': ", errnoString());
    bool write_ok =
        data.empty() ||
        std::fwrite(data.data(), 1, data.size(), f) == data.size();
    write_ok = write_ok && std::fflush(f) == 0;
    // fsync before rename: the rename must not become durable before
    // the data it points at.
    write_ok = write_ok && ::fsync(fileno(f)) == 0;
    const std::string io_err = write_ok ? "" : errnoString();
    if (std::fclose(f) != 0 && write_ok)
        return ioError("cannot close '", tmp, "': ", errnoString());
    if (!write_ok) {
        std::remove(tmp.c_str());
        return ioError("cannot write '", tmp, "': ", io_err);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string err = errnoString();
        std::remove(tmp.c_str());
        return ioError("cannot rename '", tmp, "' to '", path,
                       "': ", err);
    }
    return Status();
}

StatusOr<std::string>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return notFoundError("cannot open '", path, "': ", errnoString());
    std::string data;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        data.append(buf, n);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        return ioError("cannot read '", path, "'");
    return data;
}

} // namespace ebcp::ckpt
