"""Token-protected, content-addressed trace repository and its client."""

from .client import CloudClient, CloudUnreachableError
from .httpd import CloudStoreHTTPServer, parse_multipart
from .service import (
    AuthToken,
    BadRequestError,
    ClientAccount,
    CloudError,
    CloudStoreService,
    CorruptObjectError,
    ForbiddenError,
    InvalidCredentialsError,
    ManifestInvalidError,
    MissingPartError,
    NotFoundError,
    PayloadTooLargeError,
    StorageFullError,
    TokenExpiredError,
    TraceMetadata,
    UnauthorizedError,
    storage_key,
)

__all__ = [
    "AuthToken",
    "BadRequestError",
    "ClientAccount",
    "CloudClient",
    "CloudError",
    "CloudStoreHTTPServer",
    "CloudStoreService",
    "CloudUnreachableError",
    "CorruptObjectError",
    "ForbiddenError",
    "InvalidCredentialsError",
    "ManifestInvalidError",
    "MissingPartError",
    "NotFoundError",
    "PayloadTooLargeError",
    "StorageFullError",
    "TokenExpiredError",
    "TraceMetadata",
    "UnauthorizedError",
    "parse_multipart",
    "storage_key",
]
