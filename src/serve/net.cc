#include "serve/net.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"

namespace pka::serve
{

namespace
{

common::TaskError
err(common::ErrorKind kind, std::string message)
{
    common::TaskError e;
    e.kind = kind;
    e.message = std::move(message);
    return e;
}

common::TaskError
sysErr(const std::string &what)
{
    return err(common::ErrorKind::kStoreIo,
               what + ": " + std::strerror(errno));
}

/** Split "host:port"; false when there is no ':' or the port is bad. */
bool
splitHostPort(const std::string &addr, std::string &host, uint16_t &port)
{
    size_t colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0)
        return false;
    host = addr.substr(0, colon);
    std::string p = addr.substr(colon + 1);
    if (p.empty() || p.size() > 5 ||
        p.find_first_not_of("0123456789") != std::string::npos)
        return false;
    unsigned long v = std::strtoul(p.c_str(), nullptr, 10);
    if (v > 65535)
        return false;
    port = static_cast<uint16_t>(v);
    return true;
}

bool
fillUnixAddr(const std::string &path, sockaddr_un &sa)
{
    if (path.empty() || path.size() >= sizeof(sa.sun_path))
        return false;
    std::memset(&sa, 0, sizeof(sa));
    sa.sun_family = AF_UNIX;
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    return true;
}

/**
 * Send each write at once. The protocol's replies are small lines (a
 * progress event, then RESULT); with Nagle's algorithm the second waits
 * for the peer's delayed ACK of the first, ~40 ms per campaign.
 */
void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

} // namespace

Fd &
Fd::operator=(Fd &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void
Fd::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Fd::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

common::Expected<Listener>
Listener::open(const std::string &address)
{
    Listener l;
    if (address.rfind("unix:", 0) == 0) {
        std::string path = address.substr(5);
        sockaddr_un sa;
        if (!fillUnixAddr(path, sa))
            return err(common::ErrorKind::kBadInput,
                       "bad unix socket path '" + path + "'");
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return sysErr("socket");
        l.fd_ = Fd(fd);
        ::unlink(path.c_str()); // stale socket from a dead daemon
        if (::bind(fd, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) != 0)
            return sysErr("bind " + path);
        if (::listen(fd, 64) != 0)
            return sysErr("listen " + path);
        l.bound_ = address;
        l.unixPath_ = path;
        return l;
    }

    std::string host;
    uint16_t port = 0;
    if (!splitHostPort(address, host, port))
        return err(common::ErrorKind::kBadInput,
                   "bad listen address '" + address +
                       "' (expected host:port or unix:/path)");
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1)
        return err(common::ErrorKind::kBadInput,
                   "bad IPv4 host '" + host + "'");
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return sysErr("socket");
    l.fd_ = Fd(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) != 0)
        return sysErr("bind " + address);
    if (::listen(fd, 64) != 0)
        return sysErr("listen " + address);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len) != 0)
        return sysErr("getsockname");
    char ip[INET_ADDRSTRLEN] = "0.0.0.0";
    ::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof(ip));
    l.bound_ = std::string(ip) + ":" + std::to_string(ntohs(bound.sin_port));
    return l;
}

common::Expected<Fd>
Listener::accept()
{
    for (;;) {
        int fd = ::accept(fd_.get(), nullptr, nullptr);
        if (fd >= 0) {
            if (unixPath_.empty())
                setNoDelay(fd);
            return Fd(fd);
        }
        if (errno == EINTR || errno == ECONNABORTED)
            continue; // one connection died on the doorstep; keep going
        if (errno == EINVAL || errno == EBADF)
            return err(common::ErrorKind::kCancelled, "listener stopped");
        return sysErr("accept");
    }
}

Listener::~Listener()
{
    if (!unixPath_.empty())
        ::unlink(unixPath_.c_str());
}

common::Expected<Fd>
connectTo(const std::string &address)
{
    if (address.rfind("unix:", 0) == 0) {
        std::string path = address.substr(5);
        sockaddr_un sa;
        if (!fillUnixAddr(path, sa))
            return err(common::ErrorKind::kBadInput,
                       "bad unix socket path '" + path + "'");
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return sysErr("socket");
        Fd out(fd);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                      sizeof(sa)) != 0)
            return sysErr("connect " + address);
        return out;
    }

    std::string host;
    uint16_t port = 0;
    if (!splitHostPort(address, host, port))
        return err(common::ErrorKind::kBadInput,
                   "bad address '" + address +
                       "' (expected host:port or unix:/path)");
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1)
        return err(common::ErrorKind::kBadInput,
                   "bad IPv4 host '" + host + "'");
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return sysErr("socket");
    Fd out(fd);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) != 0)
        return sysErr("connect " + address);
    setNoDelay(fd);
    return out;
}

void
setIoTimeouts(int fd, unsigned recvSeconds, unsigned sendSeconds)
{
    timeval tv{};
    tv.tv_sec = recvSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    tv.tv_sec = sendSeconds;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

common::Expected<bool>
sendLine(int fd, const std::string &line)
{
    std::string framed = line;
    framed.push_back('\n');
    size_t sent = 0;
    while (sent < framed.size()) {
        ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return err(common::ErrorKind::kTimeout,
                           "send timed out (peer not reading)");
            return sysErr("send");
        }
        sent += static_cast<size_t>(n);
    }
    return true;
}

common::Expected<std::string>
LineReader::readLine()
{
    constexpr size_t kMaxLine = 1 << 20;
    for (;;) {
        size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            return line;
        }
        if (buf_.size() > kMaxLine)
            return err(common::ErrorKind::kBadInput,
                       "protocol line exceeds 1 MiB");
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n == 0)
            return err(common::ErrorKind::kCancelled, "peer closed");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return err(common::ErrorKind::kTimeout,
                           "read timed out (peer idle past the deadline)");
            return sysErr("recv");
        }
        buf_.append(chunk, static_cast<size_t>(n));
    }
}

} // namespace pka::serve
