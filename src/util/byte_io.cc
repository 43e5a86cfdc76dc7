#include "src/util/byte_io.h"

#include <errno.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace lps {

namespace {

// Calls `transfer(done)` until `size` bytes moved, retrying EINTR.
// Returns 0 once they have, the errno of the call that failed, or -1 if
// a call moved nothing (EOF). `*moved` receives the bytes moved.
template <typename Transfer>
int MoveAll(size_t size, size_t* moved, Transfer transfer) {
  size_t done = 0;
  int err = 0;
  while (done < size) {
    const ssize_t n = transfer(done);
    if (n > 0) {
      done += size_t(n);
    } else if (n == 0) {
      err = -1;
      break;
    } else if (errno != EINTR) {
      err = errno;
      break;
    }
  }
  *moved = done;
  return err;
}

}  // namespace

Status Errno(int err, const char* what, const std::string& path) {
  return Status::InvalidArgument(std::string(what) + " " + path + ": " +
                                 std::strerror(err));
}

Status SendAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  size_t moved = 0;
  const int err = MoveAll(size, &moved, [&](size_t done) {
    return ::send(fd, p + done, size - done, MSG_NOSIGNAL);
  });
  if (err == 0) return Status::OK();
  return Status::Failed(std::string("send: ") +
                        (err < 0 ? "nothing sent" : std::strerror(err)));
}

Status ReadAll(int fd, void* data, size_t size, size_t* got) {
  char* p = static_cast<char*>(data);
  const int err = MoveAll(size, got, [&](size_t done) {
    return ::read(fd, p + done, size - done);
  });
  if (err == 0) return Status::OK();
  if (err < 0) return Status::InvalidArgument("short read");
  return Status::Failed(std::string("read: ") + std::strerror(err));
}

Status WriteAll(int fd, const void* data, size_t size,
                const std::string& path) {
  const char* p = static_cast<const char*>(data);
  size_t moved = 0;
  const int err = MoveAll(size, &moved, [&](size_t done) {
    return ::write(fd, p + done, size - done);
  });
  if (err == 0) return Status::OK();
  if (err < 0) return Status::InvalidArgument("short write " + path);
  return Errno(err, "write failed", path);
}

Status PreadAll(int fd, void* data, size_t size, uint64_t offset,
                const std::string& path) {
  char* p = static_cast<char*>(data);
  size_t moved = 0;
  const int err = MoveAll(size, &moved, [&](size_t done) {
    return ::pread(fd, p + done, size - done, off_t(offset + done));
  });
  if (err == 0) return Status::OK();
  if (err < 0) return Status::InvalidArgument("short read " + path);
  return Errno(err, "read failed", path);
}

}  // namespace lps
