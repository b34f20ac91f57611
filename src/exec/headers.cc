#include "src/exec/headers.h"

#include <cctype>

namespace pathalias {
namespace {

std::string_view Trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool FieldIs(std::string_view line, std::string_view name, std::string_view* value) {
  if (line.size() < name.size() + 1) {
    return false;
  }
  for (size_t i = 0; i < name.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(line[i])) !=
        std::tolower(static_cast<unsigned char>(name[i]))) {
      return false;
    }
  }
  if (line[name.size()] != ':') {
    return false;
  }
  *value = line.substr(name.size() + 1);
  return true;
}

}  // namespace

HeaderRewriter::HeaderRewriter(std::string local_host, const Resolver* resolver,
                               HeaderRewriteOptions options)
    : local_host_(std::move(local_host)), resolver_(resolver), options_(options) {}

std::string HeaderRewriter::Translate(const Address& address) const {
  if (options_.gateway_target == AddressStyle::kUucp) {
    return ToBangPath(address);
  }
  return ToPercentForm(address);
}

std::string HeaderRewriter::RewriteRecipient(std::string_view text, MailRole role) const {
  Address address = ParseAddress(text, options_.parse_style);
  switch (role) {
    case MailRole::kOriginate: {
      if (resolver_ == nullptr) {
        return std::string(text);
      }
      // "Hosts that re-route mail from local users should show the modified routes in
      // message headers" — and the shown route must be usable from anywhere downstream,
      // so it is the full database route, never an abbreviation.
      Resolution resolution = resolver_->Resolve(text);
      return resolution.ok ? resolution.route : std::string(text);
    }
    case MailRole::kRelay:
      // "Relays within a network should not modify routes, nor translate to foreign
      // addressing styles."  The cbosgd lesson: shortening seismo!mcvax!piet to
      // mcvax!piet warps everyone else's relative name space.
      return std::string(text);
    case MailRole::kGateway:
      return Translate(address);
  }
  return std::string(text);
}

std::string HeaderRewriter::RewriteOriginator(std::string_view text, MailRole role) const {
  Address address = ParseAddress(text, options_.parse_style);
  switch (role) {
    case MailRole::kOriginate:
      // A bare local user becomes host!user: the return path must work remotely.
      if (address.path.empty() && !address.user.empty()) {
        return local_host_ + "!" + address.user;
      }
      return std::string(text);
    case MailRole::kRelay:
      // The From: path is relative to wherever the message is; after this hop the
      // origin is one link further away, so the relay's name is prepended.  That is
      // not "modifying the route" — it is keeping a relative address true.
      address.path.insert(address.path.begin(), local_host_);
      return ToBangPath(address);
    case MailRole::kGateway: {
      Address prefixed = address;
      prefixed.path.insert(prefixed.path.begin(), local_host_);
      return Translate(prefixed);
    }
  }
  return std::string(text);
}

std::string HeaderRewriter::RewriteAddress(std::string_view address, MailRole role) const {
  return RewriteRecipient(address, role);
}

std::string HeaderRewriter::RewriteAddressList(std::string_view list, MailRole role,
                                               bool originator_field) const {
  std::string out;
  size_t start = 0;
  bool first = true;
  while (start <= list.size()) {
    size_t comma = list.find(',', start);
    std::string_view piece = comma == std::string_view::npos
                                 ? list.substr(start)
                                 : list.substr(start, comma - start);
    std::string_view address = Trim(piece);
    if (!address.empty()) {
      if (!first) {
        out += ", ";
      }
      first = false;
      out += originator_field ? RewriteOriginator(address, role)
                              : RewriteRecipient(address, role);
    }
    if (comma == std::string_view::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

std::string HeaderRewriter::RewriteMessage(std::string_view message, MailRole role) const {
  std::string out;
  size_t pos = 0;
  bool in_headers = true;
  bool first_line = true;
  while (pos <= message.size()) {
    size_t end = message.find('\n', pos);
    bool had_newline = end != std::string_view::npos;
    std::string_view line = message.substr(pos, had_newline ? end - pos : std::string_view::npos);
    pos = had_newline ? end + 1 : message.size() + 1;

    if (!in_headers) {
      out += line;
      if (had_newline) {
        out += '\n';
      }
      continue;
    }
    if (line.empty()) {
      in_headers = false;
      out += line;
      if (had_newline) {
        out += '\n';
      }
      continue;
    }

    // The mbox envelope: "From user date..." — relays traditionally prepend their
    // name to the address and append "remote from <previous hop implied by caller>".
    if (first_line && line.starts_with("From ") && role != MailRole::kOriginate) {
      first_line = false;
      size_t addr_start = 5;
      size_t addr_end = line.find(' ', addr_start);
      if (addr_end == std::string_view::npos) {
        addr_end = line.size();
      }
      std::string_view address = line.substr(addr_start, addr_end - addr_start);
      out += "From ";
      out += RewriteOriginator(address, role);
      out += line.substr(addr_end);
      out += " remote from ";
      out += local_host_;
      if (had_newline) {
        out += '\n';
      }
      continue;
    }
    first_line = false;

    // Gather continuation lines — but only for the address fields this rewriter owns;
    // a wrapped Subject: must pass through with its line breaks intact ("other
    // message data should not be modified at all").
    std::string_view probe;
    bool address_field = FieldIs(line, "From", &probe) || FieldIs(line, "To", &probe) ||
                         FieldIs(line, "Cc", &probe);
    std::string logical(line);
    while (address_field && pos < message.size() &&
           (message[pos] == ' ' || message[pos] == '\t')) {
      size_t cont_end = message.find('\n', pos);
      bool cont_newline = cont_end != std::string_view::npos;
      std::string_view cont =
          message.substr(pos, cont_newline ? cont_end - pos : std::string_view::npos);
      logical += ' ';
      logical += Trim(cont);
      pos = cont_newline ? cont_end + 1 : message.size() + 1;
    }

    std::string_view value;
    if (FieldIs(logical, "From", &value)) {
      out += "From: " + RewriteAddressList(value, role, /*originator_field=*/true);
    } else if (FieldIs(logical, "To", &value)) {
      out += "To: " + RewriteAddressList(value, role, /*originator_field=*/false);
    } else if (FieldIs(logical, "Cc", &value)) {
      out += "Cc: " + RewriteAddressList(value, role, /*originator_field=*/false);
    } else {
      // "Other message data should not be modified at all."
      out += logical;
    }
    if (had_newline) {
      out += '\n';
    }
  }
  return out;
}

}  // namespace pathalias
